package trace

import (
	"encoding/binary"
)

// FindSerialReordering searches exhaustively for a serial reordering of the
// trace, returning it and true if one exists. This is the exact decision
// procedure for the VSC problem of Gibbons & Korach ("Testing shared
// memories", SICOMP 1997), which the paper's Section 5 proposes as the
// per-run testing baseline. The problem is NP-hard in general; this
// implementation is a memoized depth-first search over (per-processor
// frontier, memory contents) states and is exponential in the worst case —
// exactly the blow-up the finite-state observer/checker method avoids.
//
// A nil trace (length 0) trivially has the empty serial reordering. The
// search runs on t.Compact(), which keeps positions, so the reordering
// indexes t itself.
func FindSerialReordering(t Trace) (Reordering, bool) {
	t, _ = t.Compact()
	byProc := t.ByProc()
	procs := len(byProc) - 1
	if procs < 0 {
		procs = 0
	}
	blocks := t.Blocks()

	s := searcher{
		trace:  t,
		byProc: byProc,
		blocks: blocks,
		front:  make([]int, procs+1),
		mem:    make([]Value, blocks+1),
		dead:   make(map[string]struct{}),
		chosen: make(Reordering, 0, len(t)),
		keybuf: make([]byte, 0, 4*(procs+1+blocks+1)),
	}
	for i := range s.mem {
		s.mem[i] = Bottom
	}
	if s.search() {
		out := make(Reordering, len(s.chosen))
		copy(out, s.chosen)
		return out, true
	}
	return nil, false
}

// HasSerialReordering reports whether the trace is sequentially consistent,
// i.e. some serial reordering exists.
func HasSerialReordering(t Trace) bool {
	_, ok := FindSerialReordering(t)
	return ok
}

type searcher struct {
	trace  Trace
	byProc [][]int
	blocks int

	front  []int   // next unscheduled index into byProc[p], per processor
	mem    []Value // current memory contents per block (index 0 unused)
	placed int
	chosen Reordering

	dead   map[string]struct{} // states proven to admit no completion
	keybuf []byte
}

// key encodes the search state: the per-processor frontier plus memory
// contents. Two search paths reaching the same key have identical futures,
// so failed states are memoized in s.dead.
func (s *searcher) key() string {
	buf := s.keybuf[:0]
	var tmp [4]byte
	for _, f := range s.front[1:] {
		binary.LittleEndian.PutUint32(tmp[:], uint32(f))
		buf = append(buf, tmp[:]...)
	}
	for _, v := range s.mem[1:] {
		binary.LittleEndian.PutUint32(tmp[:], uint32(v))
		buf = append(buf, tmp[:]...)
	}
	s.keybuf = buf
	return string(buf)
}

func (s *searcher) search() bool {
	if s.placed == len(s.trace) {
		return true
	}
	k := s.key()
	if _, bad := s.dead[k]; bad {
		return false
	}
	for p := 1; p < len(s.byProc); p++ {
		idx := s.front[p]
		if idx >= len(s.byProc[p]) {
			continue
		}
		pos := s.byProc[p][idx]
		op := s.trace[pos]
		var saved Value
		switch op.Kind {
		case Load:
			if s.mem[op.Block] != op.Value {
				continue // not schedulable now
			}
		case Store:
			saved = s.mem[op.Block]
			s.mem[op.Block] = op.Value
		}
		s.front[p]++
		s.placed++
		s.chosen = append(s.chosen, pos)
		if s.search() {
			return true
		}
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.placed--
		s.front[p]--
		if op.Kind == Store {
			s.mem[op.Block] = saved
		}
	}
	s.dead[k] = struct{}{}
	return false
}

// StoreOrder extracts, from a serial reordering, the per-block total order
// of store operations it induces. The result maps each block ID to the
// 0-based trace positions of its stores, in serial order. This is the ST
// order that the constraint graph of Section 3.1 must witness.
func (r Reordering) StoreOrder(t Trace) map[BlockID][]int {
	out := make(map[BlockID][]int)
	for _, pos := range r {
		op := t[pos]
		if op.IsStore() {
			out[op.Block] = append(out[op.Block], pos)
		}
	}
	return out
}

// InheritanceMap extracts, from a serial reordering, the store each load
// inherits its value from: the result maps the trace position of each load
// with a non-Bottom value to the trace position of the most recent store to
// the same block in the reordered trace. Loads of Bottom are absent.
func (r Reordering) InheritanceMap(t Trace) map[int]int {
	out := make(map[int]int)
	lastStore := make(map[BlockID]int)
	for _, pos := range r {
		op := t[pos]
		switch op.Kind {
		case Store:
			lastStore[op.Block] = pos
		case Load:
			if op.Value != Bottom {
				if st, ok := lastStore[op.Block]; ok {
					out[pos] = st
				}
			}
		}
	}
	return out
}
