// Package trace defines memory operations, protocol traces, and the
// semantics of serial traces and serial reorderings from Section 2 of
// Condon & Hu, "Automatable Verification of Sequential Consistency"
// (SPAA 2001).
//
// A trace is the subsequence of LD and ST operations of a protocol run. A
// trace is sequentially consistent if some permutation of it preserves each
// processor's program order and is a serial trace (every load returns the
// value of the most recent store to the same block, or Bottom if none).
// This package provides both the linear-time serial-trace check and the
// exact (exponential-time) search for a serial reordering, which serves as
// the Gibbons–Korach baseline against which the paper's finite-state
// observer/checker method is evaluated.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind distinguishes load and store operations.
type OpKind uint8

const (
	// Load is a LD(P,B,V) operation: processor P loaded value V from block B.
	Load OpKind = iota
	// Store is a ST(P,B,V) operation: processor P stored value V to block B.
	Store
)

// String returns the paper's mnemonic for the operation kind.
func (k OpKind) String() string {
	switch k {
	case Load:
		return "LD"
	case Store:
		return "ST"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Bottom is the initial value of every block, written ⊥ in the paper. A
// load may legally return Bottom only if no store to its block precedes it
// in the serial reordering.
const Bottom Value = 0

// ProcID identifies a processor, numbered 1..p.
type ProcID int

// BlockID identifies a memory block, numbered 1..b.
type BlockID int

// Value is a data value, numbered 1..v; Value 0 is Bottom (⊥).
type Value int

// Op is a single memory operation LD(P,B,V) or ST(P,B,V).
type Op struct {
	Kind  OpKind
	Proc  ProcID
	Block BlockID
	Value Value
}

// LD constructs a load operation.
func LD(p ProcID, b BlockID, v Value) Op { return Op{Kind: Load, Proc: p, Block: b, Value: v} }

// ST constructs a store operation.
func ST(p ProcID, b BlockID, v Value) Op { return Op{Kind: Store, Proc: p, Block: b, Value: v} }

// IsLoad reports whether the operation is a load.
func (o Op) IsLoad() bool { return o.Kind == Load }

// IsStore reports whether the operation is a store.
func (o Op) IsStore() bool { return o.Kind == Store }

// String renders the operation in the paper's notation, e.g. "ST(P1,B2,3)".
// Bottom values render as "⊥".
func (o Op) String() string {
	val := "⊥"
	if o.Value != Bottom {
		val = fmt.Sprintf("%d", o.Value)
	}
	return fmt.Sprintf("%s(P%d,B%d,%s)", o.Kind, o.Proc, o.Block, val)
}

// Params bundles the protocol constants p (processors), b (blocks) and
// v (values) from the protocol tuple of Section 2.1.
type Params struct {
	Procs  int // p: number of processors, IDs 1..p
	Blocks int // b: number of memory blocks, IDs 1..b
	Values int // v: number of data values, 1..v (0 is Bottom)
}

// Validate reports an error if any constant is non-positive.
func (pr Params) Validate() error {
	if pr.Procs < 1 || pr.Blocks < 1 || pr.Values < 1 {
		return fmt.Errorf("trace: invalid params p=%d b=%d v=%d (all must be >= 1)", pr.Procs, pr.Blocks, pr.Values)
	}
	return nil
}

// Contains reports whether op draws its processor, block and value from the
// ranges allowed by the parameters. Loads may additionally return Bottom.
func (pr Params) Contains(op Op) bool {
	if op.Proc < 1 || int(op.Proc) > pr.Procs {
		return false
	}
	if op.Block < 1 || int(op.Block) > pr.Blocks {
		return false
	}
	if op.Value < 0 || int(op.Value) > pr.Values {
		return false
	}
	if op.IsStore() && op.Value == Bottom {
		return false // stores inject real values only; ⊥ is never stored
	}
	return true
}

// String renders the parameter triple.
func (pr Params) String() string {
	return fmt.Sprintf("p=%d b=%d v=%d", pr.Procs, pr.Blocks, pr.Values)
}

// Trace is a finite sequence of LD and ST operations — the projection of a
// protocol run onto its memory actions.
type Trace []Op

// String renders the trace as a comma-separated operation list.
func (t Trace) String() string {
	var sb strings.Builder
	for i, op := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(op.String())
	}
	return sb.String()
}

// Clone returns a deep copy of the trace.
func (t Trace) Clone() Trace {
	out := make(Trace, len(t))
	copy(out, t)
	return out
}

// Procs returns the largest processor ID mentioned, or 0 for an empty trace.
func (t Trace) Procs() int {
	max := 0
	for _, op := range t {
		if int(op.Proc) > max {
			max = int(op.Proc)
		}
	}
	return max
}

// Blocks returns the largest block ID mentioned, or 0 for an empty trace.
func (t Trace) Blocks() int {
	max := 0
	for _, op := range t {
		if int(op.Block) > max {
			max = int(op.Block)
		}
	}
	return max
}

// Values returns the largest data value mentioned, or 0 for a trace of
// ⊥-loads only (or an empty trace).
func (t Trace) Values() int {
	max := 0
	for _, op := range t {
		if int(op.Value) > max {
			max = int(op.Value)
		}
	}
	return max
}

// Params returns the tightest parameter triple containing the trace: the
// maxima of its processor, block and value ranges. An empty trace yields
// the zero Params (which disables the checker's range check).
func (t Trace) Params() Params {
	return Params{Procs: t.Procs(), Blocks: t.Blocks(), Values: t.Values()}
}

// Compact returns a copy of t with its processor IDs and its block IDs
// each renamed to 1..n in ascending order, and the original ID of each
// renamed processor (index 0 unused). Sequential consistency and the
// weaker models of the tier ladder are invariant under such renaming, and
// because the order is kept, searches that walk processors by ID explore
// in the same order. Searches that index slices by ID run on the compact
// copy, so a trace decoded from outside the program that names processor
// or block 2^62 sizes nothing by that ID.
func (t Trace) Compact() (Trace, []ProcID) {
	procIDs := make([]int, 0, len(t))
	blockIDs := make([]int, 0, len(t))
	for _, op := range t {
		procIDs = append(procIDs, int(op.Proc))
		blockIDs = append(blockIDs, int(op.Block))
	}
	procs, procRank := ranks(procIDs)
	_, blockRank := ranks(blockIDs)
	out := make(Trace, len(t))
	for i, op := range t {
		op.Proc = ProcID(procRank[int(op.Proc)])
		op.Block = BlockID(blockRank[int(op.Block)])
		out[i] = op
	}
	orig := make([]ProcID, len(procs)+1)
	for i, id := range procs {
		orig[i+1] = ProcID(id)
	}
	return out, orig
}

// ranks sorts and deduplicates ids in place, returning the distinct IDs
// and each one's 1-based rank.
func ranks(ids []int) ([]int, map[int]int) {
	sort.Ints(ids)
	rank := make(map[int]int, len(ids))
	distinct := ids[:0]
	for _, id := range ids {
		if _, ok := rank[id]; !ok {
			distinct = append(distinct, id)
			rank[id] = len(distinct)
		}
	}
	return distinct, rank
}

// ByProc splits the trace into per-processor program orders. The slice is
// indexed by processor ID; index 0 is unused. Each entry holds the trace
// positions (0-based) of that processor's operations, in trace order.
func (t Trace) ByProc() [][]int {
	out := make([][]int, t.Procs()+1)
	for i, op := range t {
		out[op.Proc] = append(out[op.Proc], i)
	}
	return out
}
