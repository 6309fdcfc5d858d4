package scserve

import (
	"scverify/internal/descriptor"
	"scverify/internal/trace"
)

// SyntheticK is the bandwidth bound SyntheticAccept and SyntheticReject
// streams are encoded for.
const SyntheticK = 3

// SyntheticHeader returns the session header matching the synthetic
// streams below.
func SyntheticHeader() Header {
	return Header{K: SyntheticK, Params: trace.Params{Procs: 1, Blocks: 1, Values: 2}}
}

// SyntheticAccept returns an SC descriptor stream of at least n symbols
// (n ≥ 3): one store followed by a program-order chain of loads that all
// inherit from it. The checker accepts it at every prefix length produced
// here. Used by the tests of this and the client packages, where verdict
// correctness must be known a priori.
func SyntheticAccept(n int) descriptor.Stream {
	st := trace.ST(1, 1, 1)
	ld := trace.LD(1, 1, 1)
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: &st},
		descriptor.Node{ID: 2, Op: &ld},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.POInh},
	}
	prev, next := 2, 3
	for len(s) < n {
		s = append(s,
			descriptor.Node{ID: next, Op: &ld},
			descriptor.Edge{From: prev, To: next, Label: descriptor.PO},
			descriptor.Edge{From: 1, To: next, Label: descriptor.Inh},
		)
		prev, next = next, prev
	}
	return s
}

// SyntheticReject returns a stream whose prefix is SyntheticAccept(prefix)
// followed by a store-order/program-order cycle, together with the
// zero-based index of the symbol at which the checker rejects (the edge
// that closes the cycle).
func SyntheticReject(prefix int) (descriptor.Stream, int) {
	s := SyntheticAccept(prefix)
	st1 := trace.ST(1, 1, 1)
	st2 := trace.ST(1, 1, 2)
	// The two fresh stores recycle the load IDs 2 and 3; the PO edge
	// against the STo edge closes a two-node cycle.
	s = append(s,
		descriptor.Node{ID: 2, Op: &st1},
		descriptor.Node{ID: 3, Op: &st2},
		descriptor.Edge{From: 2, To: 3, Label: descriptor.STo},
		descriptor.Edge{From: 3, To: 2, Label: descriptor.PO},
	)
	return s, len(s) - 1
}
