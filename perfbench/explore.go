package main

import (
	"fmt"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/mc"
	"scverify/internal/registry"
	"scverify/internal/sctest"
	"scverify/internal/trace"
)

// An explore op is one mc.Verify call. The pinned counts below are the
// exact state and transition totals of each configuration; a pass that
// reaches other counts has a wrong verdict.
type exploreOp struct {
	label       string
	protocol    string
	params      trace.Params
	depth       int // 0 explores to closure
	verdict     mc.Verdict
	states      int // 0: not pinned (a violation search stops early)
	transitions int
	timed       bool // the op kind the percentiles cover
}

// smallOps is how many small bounded explorations a pass makes: enough
// for ten samples beyond the 90th percentile in every pass.
const smallOps = 100

func exploreOps() []exploreOp {
	p211 := trace.Params{Procs: 2, Blocks: 1, Values: 1}
	ops := []exploreOp{
		{label: "msi depth 10", protocol: "msi", params: p211, depth: 10, verdict: mc.Incomplete, states: 16044, transitions: 38624},
		{label: "serial closure", protocol: "serial", params: p211, verdict: mc.Verified, states: 9405, transitions: 37620},
		{label: "storebuffer violation", protocol: "storebuffer", params: trace.Params{Procs: 2, Blocks: 2, Values: 1}, verdict: mc.Violated},
	}
	for i := 0; i < smallOps; i++ {
		ops = append(ops, exploreOp{label: "msi depth 7", protocol: "msi", params: p211, depth: 7,
			verdict: mc.Incomplete, states: 1506, transitions: 3118, timed: true})
	}
	return ops
}

type exploreInput struct {
	op  exploreOp
	tgt registry.Target
}

type explore struct {
	inputs []exploreInput
}

func (e *explore) workUnit() string { return "states" }
func (e *explore) close()           {}

// setup builds every target and goes through the set-up mc.Verify does
// before it explores: an Explorer (initial product state, visited set,
// worker pool), stopped again. The configurations are pinned, so the seed
// does not change them.
func (e *explore) setup(int64) error {
	e.inputs = e.inputs[:0]
	for _, op := range exploreOps() {
		tgt, err := registry.Build(op.protocol, registry.Options{Params: op.params})
		if err != nil {
			return err
		}
		x, err := mc.NewExplorer(tgt.Protocol, mc.ProductOptions{PoolSize: tgt.PoolSize, Generator: tgt.Generator},
			mc.ExplorerConfig{MaxDepth: op.depth})
		if err != nil {
			return err
		}
		x.Stop()
		e.inputs = append(e.inputs, exploreInput{op: op, tgt: tgt})
	}
	return nil
}

func (e *explore) pass(t *tracer) passResult {
	var r passResult
	for i, in := range e.inputs {
		r.attempted++
		if t != nil {
			t.setOp(i)
			states, err := tracedBFS(t, in)
			r.work += int64(states)
			if err != nil {
				r.fail("%s (traced): %v", in.op.label, err)
			}
			continue
		}
		t0 := time.Now()
		res := mc.Verify(in.tgt.Protocol, mc.Options{MaxDepth: in.op.depth, PoolSize: in.tgt.PoolSize, Generator: in.tgt.Generator})
		err := checkExplore(in, res)
		d := time.Since(t0)
		r.work += int64(res.States)
		if err != nil {
			r.fail("%s: %v", in.op.label, err)
		} else if in.op.timed {
			r.latencies = append(r.latencies, float64(d)/1e6)
		}
	}
	return r
}

// checkExplore compares a result with the pinned answer; a violation's
// counterexample must replay to a run the checker rejects.
func checkExplore(in exploreInput, res mc.Result) error {
	op := in.op
	if res.Verdict != op.verdict {
		return fmt.Errorf("verdict %v, want %v (%v)", res.Verdict, op.verdict, res.Err)
	}
	if op.states > 0 && (res.States != op.states || res.Transitions != op.transitions) {
		return fmt.Errorf("%d states, %d transitions; want %d, %d", res.States, res.Transitions, op.states, op.transitions)
	}
	if op.verdict != mc.Violated {
		return nil
	}
	run, err := mc.Replay(in.tgt.Protocol, res.Counterexample)
	if err != nil {
		return fmt.Errorf("counterexample replay: %w", err)
	}
	if sctest.CheckRun(run, in.tgt) == nil {
		return fmt.Errorf("counterexample run of %d steps is accepted", len(run.Steps))
	}
	return nil
}

// Span names of the traced exploration.
const (
	spTransitions = "protocol.transitions"
	spObsClone    = "observer.clone"
	spObsStep     = "observer.step"
	spObsKey      = "observer.key"
	spChkClone    = "checker.clone"
	spChkStep     = "checker.step"
	spChkKey      = "checker.key"
	spChkFinish   = "checker.finish"
	spFingerprint = "mc.fingerprint"
)

// tracedBFS re-enacts mc.Verify's exploration breadth-first on one
// goroutine, calling the same public functions mc.Product.Step does, with
// a span around each. It deduplicates on the 64-bit fingerprint as
// mc.Verify does, so it must reach the same pinned state counts.
func tracedBFS(t *tracer, in exploreInput) (states int, err error) {
	var (
		idTr     = t.id(spTransitions)
		idOClone = t.id(spObsClone)
		idOStep  = t.id(spObsStep)
		idOKey   = t.id(spObsKey)
		idCClone = t.id(spChkClone)
		idCStep  = t.id(spChkStep)
		idCKey   = t.id(spChkKey)
		idFinish = t.id(spChkFinish)
		idFP     = t.id(spFingerprint)
	)
	p := in.tgt.Protocol
	root := mc.NewProduct(p, mc.ProductOptions{PoolSize: in.tgt.PoolSize, Generator: in.tgt.Generator})
	seen := map[uint64]bool{root.FP: true}
	states = 1
	transitions := 0
	violated := func(cause error) (int, error) {
		if in.op.verdict != mc.Violated {
			return states, fmt.Errorf("rejected: %v", cause)
		}
		return states, nil
	}
	t.begin(idFinish)
	ferr := root.FinishCheck()
	t.end()
	if ferr != nil {
		return violated(ferr)
	}

	var (
		frontier = []*mc.Product{root}
		next     []*mc.Product
		keyBuf   []byte
	)
	for depth := 0; len(frontier) > 0 && (in.op.depth == 0 || depth < in.op.depth); depth++ {
		next = next[:0]
		for _, cur := range frontier {
			t.begin(idTr)
			trs := p.Transitions(cur.PState)
			t.end()
			transitions += len(trs)
			for _, tr := range trs {
				t.begin(idCClone)
				chk := cur.Chk.Clone()
				t.end()
				var ferr error
				symbols := 0
				hook := func(sym descriptor.Symbol) error {
					symbols++
					t.begin(idCStep)
					err := chk.Step(sym)
					t.end()
					if err != nil {
						ferr = err
					}
					return err
				}
				t.begin(idOClone)
				obs := cur.Obs.Clone(hook)
				t.end()
				t.begin(idOStep)
				serr := obs.Step(tr)
				t.end()
				t.count("mc.steps", 1)
				t.count("mc.symbols", int64(symbols))
				if serr != nil {
					if ferr != nil {
						serr = ferr
					}
					return violated(serr)
				}

				t.begin(idOKey)
				rename := obs.CanonicalRename()
				okey := obs.CanonicalKey(rename)
				t.end()
				t.begin(idCKey)
				ckey := chk.StateKeyRenamed(rename)
				t.end()
				keyBuf = productKey(keyBuf[:0], tr.Next.Key(), okey, ckey)
				key := string(keyBuf)
				t.count("mc.key_bytes", int64(len(key)))
				t.begin(idFP)
				fp := mc.Fingerprint(key)
				t.end()
				if seen[fp] {
					continue
				}
				seen[fp] = true
				states++
				t.count("mc.fresh", 1)
				ne := &mc.Product{PState: tr.Next, Obs: obs, Chk: chk, Key: key, FP: fp, Depth: depth + 1}
				t.begin(idFinish)
				fin := ne.FinishCheck()
				t.end()
				if fin != nil {
					return violated(fin)
				}
				next = append(next, ne)
			}
		}
		frontier, next = next, frontier
	}
	verdict := mc.Verified
	if len(frontier) > 0 { // states left unexpanded at the depth bound
		verdict = mc.Incomplete
	}
	if verdict != in.op.verdict {
		return states, fmt.Errorf("traced exploration: verdict %v after %d states, want %v", verdict, states, in.op.verdict)
	}
	if states != in.op.states || transitions != in.op.transitions {
		return states, fmt.Errorf("traced exploration reached %d states, %d transitions; want %d, %d",
			states, transitions, in.op.states, in.op.transitions)
	}
	return states, nil
}

// productKey is mc's product-state key layout: the protocol, observer and
// checker keys, each behind a 4-byte little-endian length.
func productKey(dst []byte, pk string, ok, ck []byte) []byte {
	for _, b := range [][]byte{[]byte(pk), ok, ck} {
		n := len(b)
		dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		dst = append(dst, b...)
	}
	return dst
}

func (e *explore) layers(t *tracer) []metric {
	// Clone and key allocation per call, over the first product states
	// of the small configuration.
	var sample []*mc.Product
	for _, in := range e.inputs {
		if in.op.timed {
			sample = collectStates(in, 512)
			break
		}
	}
	obsB, _ := allocPerCall(len(sample), func(i int) { sample[i].Obs.Clone(nil) })
	chkB, _ := allocPerCall(len(sample), func(i int) { sample[i].Chk.Clone() })
	keyB, _ := allocPerCall(len(sample), func(i int) {
		sample[i].Chk.StateKeyRenamed(sample[i].Obs.CanonicalRename())
	})

	steps := float64(t.counts["mc.steps"])
	return []metric{
		{"protocol.transitions_ns", t.selfPerCall(spTransitions), "ns"},
		{"observer.clone_ns", t.selfPerCall(spObsClone), "ns"},
		{"observer.clone_b", obsB, "B"},
		{"observer.step_ns", t.selfPerCall(spObsStep), "ns"},
		{"observer.key_ns", t.selfPerCall(spObsKey), "ns"},
		{"checker.clone_ns", t.selfPerCall(spChkClone), "ns"},
		{"checker.clone_b", chkB, "B"},
		{"checker.step_ns", t.selfPerCall(spChkStep), "ns"},
		{"checker.key_ns", t.selfPerCall(spChkKey), "ns"},
		{"checker.key_b", keyB, "B"},
		{"checker.finish_ns", t.selfPerCall(spChkFinish), "ns"},
		{"mc.fingerprint_ns", t.selfPerCall(spFingerprint), "ns"},
		{"mc.key_len_b", float64(t.counts["mc.key_bytes"]) / steps, "B"},
		{"mc.fresh_ratio", float64(t.counts["mc.fresh"]) / steps, "ratio"},
		{"mc.symbols_per_step", float64(t.counts["mc.symbols"]) / steps, "symbols"},
	}
}

// collectStates returns up to n product states of in's configuration,
// breadth-first from the initial state.
func collectStates(in exploreInput, n int) []*mc.Product {
	p := in.tgt.Protocol
	out := []*mc.Product{mc.NewProduct(p, mc.ProductOptions{PoolSize: in.tgt.PoolSize, Generator: in.tgt.Generator})}
	for i := 0; i < len(out) && len(out) < n; i++ {
		for j, tr := range p.Transitions(out[i].PState) {
			ne, err := out[i].Step(tr, j)
			if err == nil && len(out) < n {
				out = append(out, ne)
			}
		}
	}
	return out
}
