// Package spectrum adjudicates a rejected execution against the spectrum
// of memory models weaker than sequential consistency and reports the
// strongest model the trace still satisfies.
//
// The checker of Condon & Hu answers a yes/no question: is the trace SC?
// When the answer is no, production users want to know *how* weak the
// execution actually was — a store-buffer blip that any TSO machine would
// exhibit is a very different incident from a value loaded out of thin
// air. This package re-runs the minimized witness core (from
// internal/witness ddmin, or a lowered history's event set) through exact
// checkers for four weaker models and names the strongest one satisfied:
//
//	SC > TSO > PSO          (store-buffer family)
//	SC > causal > PRAM      (session family)
//
// The models form a lattice, not a chain — TSO and causal consistency are
// incomparable (IRIW is causal-consistent but TSO-inconsistent; the
// relaxed message-passing trace is PSO-consistent but PRAM-inconsistent).
// The reported Tier is the first satisfied rung scanning the fixed ladder
// SC > TSO > PSO > causal > PRAM top-down; the full per-model truth is in
// Result.Passed for callers that want the lattice view.
//
// Checker shapes, per the complexity map of "How Hard is Weak-Memory
// Testing?" (PAPERS.md): TSO/PSO use a memoized depth-first search over
// store-buffer machine states (the bounded-buffer style of
// internal/boundedreorder, specialized to FIFO respectively per-block-FIFO
// drain as in internal/memmodel); PRAM uses the per-process serialization
// decomposition (each process sees all writes plus its own reads in some
// order respecting per-writer program order); causal adds the transitive
// closure of program order and reads-from as a visibility constraint on
// those serializations. All four are decision procedures on the witness
// core, which ddmin keeps small (≲14 ops), so exponential worst cases are
// immaterial; a node budget bounds pathological inputs and degrades to
// "tier unknown", never to a wrong tier.
package spectrum

import (
	"fmt"
	"strings"

	"scverify/internal/boundedreorder"
	"scverify/internal/trace"
)

// Tier identifies a consistency model, ordered by strength: a larger Tier
// is a stronger model. The numeric values are stable wire codes carried in
// tiered verdict frames — never renumber them.
type Tier int

const (
	// TierNone means the trace satisfies none of the checked models —
	// not even PRAM admits it.
	TierNone Tier = 0
	// TierPRAM: pipelined RAM — every process observes all writes plus
	// its own operations in some order respecting each writer's program
	// order (Lipton & Sandberg).
	TierPRAM Tier = 1
	// TierCausal: causal memory — PRAM plus agreement on the causal
	// (program-order ∪ reads-from)⁺ order of writes (Ahamad et al.).
	TierCausal Tier = 2
	// TierPSO: partial store order — stores drain from per-processor
	// buffers in per-block FIFO order; stores to different blocks may
	// reorder.
	TierPSO Tier = 3
	// TierTSO: total store order — stores drain from per-processor FIFO
	// buffers; loads may overtake buffered stores and forward from them.
	TierTSO Tier = 4
	// TierSC: sequential consistency — the trace has a serial
	// reordering after all; the rejection was an annotation inadequacy,
	// not a real violation.
	TierSC Tier = 5

	// NumTiers is the number of defined tiers (array sizing).
	NumTiers = 6
)

// DefaultLimit is the largest core the adjudicator checks by default. It
// matches the witness package's exact-certification limit: ddmin cores at
// or under this size are cheap for every checker here.
const DefaultLimit = 14

// nodeBudget caps the states each memoized search may expand. Exhausting
// it fails that rung conservatively (the tier is reported as not
// satisfied and Result.Bounded is set) — a budget can hide a satisfying
// order but can never invent one, so tiers may be missed, never wrong.
const nodeBudget = 1 << 18

// maxRFAssignments caps the reads-from assignments enumerated by the
// causal checker when several stores carry the same (block, value).
const maxRFAssignments = 64

// String returns the tier's conventional name. Unknown codes (possible
// when decoding frames from a newer peer) render as "tier(N)".
func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierPRAM:
		return "PRAM"
	case TierCausal:
		return "causal"
	case TierPSO:
		return "PSO"
	case TierTSO:
		return "TSO"
	case TierSC:
		return "SC"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Valid reports whether the tier is one of the defined codes.
func (t Tier) Valid() bool { return t >= TierNone && t < NumTiers }

// Options configures Adjudicate.
type Options struct {
	// Limit is the largest trace (in operations) to adjudicate; larger
	// traces return Checked=false. 0 means DefaultLimit; negative
	// disables adjudication entirely.
	Limit int
}

// Reorder names the store-buffer reordering that licenses a TSO or PSO
// tier: the buffered store that drained late and the same-processor
// operation that overtook it. Both are 0-based positions into the
// adjudicated trace.
type Reorder struct {
	Store int // position of the store that was held in the buffer
	Past  int // position of the later program-order op that committed first
}

// Result is the outcome of adjudicating one trace.
type Result struct {
	Ops     int  // length of the adjudicated trace
	Checked bool // false: trace exceeded Options.Limit, no tiers computed
	Bounded bool // some rung hit its search budget; tiers are a lower bound

	// Tier is the strongest rung satisfied, scanning SC > TSO > PSO >
	// causal > PRAM top-down. TierNone if every rung fails.
	Tier Tier

	// Passed records, per tier, whether its exact checker admitted the
	// trace — the full lattice view (TSO and causal are incomparable, so
	// Tier alone cannot express "TSO yes, causal no").
	Passed [NumTiers]bool

	// Reorder is the store-buffer reordering witnessing a TierTSO or
	// TierPSO result, when one was extracted.
	Reorder *Reorder

	// FailProc, for TierNone, is the first process whose PRAM
	// serialization does not exist (0 if unknown).
	FailProc trace.ProcID
}

// Adjudicate runs the full ladder over the trace. The trace should be a
// rejection core: if it is actually SC the result is TierSC, which
// witness rendering reports as an annotation inadequacy.
func Adjudicate(t trace.Trace, opts Options) Result {
	limit := opts.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	res := Result{Ops: len(t)}
	if limit < 0 || len(t) > limit {
		return res
	}
	res.Checked = true
	// Every rung runs on the compact renaming (positions are kept, so
	// Reorder still indexes t); only FailProc is mapped back.
	t, procs := t.Compact()

	// SC rung: the exact Gibbons–Korach search, same as witness
	// certification.
	res.Passed[TierSC] = trace.HasSerialReordering(t)

	// Store-buffer family.
	tso := checkBuffered(t, false)
	pso := checkBuffered(t, true)
	res.Passed[TierTSO] = tso.ok
	res.Passed[TierPSO] = pso.ok
	res.Bounded = res.Bounded || tso.bounded || pso.bounded

	// Session family.
	pram := checkPRAM(t)
	causal := checkCausal(t)
	res.Passed[TierPRAM] = pram.ok
	res.Passed[TierCausal] = causal.ok
	res.Bounded = res.Bounded || pram.bounded || causal.bounded
	res.FailProc = procs[pram.failProc]

	// Enforce the lattice entailments explicitly. Each implication holds
	// semantically (an SC order is a TSO schedule with immediate drains
	// and is every process's causal serialization; a TSO drain schedule
	// is a PSO one; a causal serialization family is a PRAM one), but a
	// weaker rung's larger search space could exhaust its budget while
	// the stronger rung succeeded — promote so reported tiers are always
	// monotone.
	if res.Passed[TierSC] {
		for i := range res.Passed {
			res.Passed[i] = true
		}
	}
	if res.Passed[TierTSO] {
		res.Passed[TierPSO] = true
	}
	if res.Passed[TierCausal] {
		res.Passed[TierPRAM] = true
	}
	res.Passed[TierNone] = true // vacuous floor

	for tier := TierSC; tier > TierNone; tier-- {
		if res.Passed[tier] {
			res.Tier = tier
			break
		}
	}
	switch res.Tier {
	case TierTSO:
		res.Reorder = tso.reorder
	case TierPSO:
		res.Reorder = pso.reorder
	}
	if res.Tier != TierNone {
		res.FailProc = 0
	}
	return res
}

// String is a one-line summary, e.g. "TSO-consistent (store ST(P1,B1,1)
// at op 0 drained after op 1)".
func (r Result) String() string {
	if !r.Checked {
		return fmt.Sprintf("tier not adjudicated (trace of %d ops exceeds limit)", r.Ops)
	}
	switch r.Tier {
	case TierSC:
		return "SC after all (annotation inadequacy, not a real violation)"
	case TierNone:
		if r.FailProc != 0 {
			return fmt.Sprintf("no consistency tier holds (not even PRAM: no serialization for P%d)", r.FailProc)
		}
		return "no consistency tier holds (not even PRAM)"
	default:
		s := fmt.Sprintf("%s-consistent", r.Tier)
		if r.Reorder != nil {
			s += fmt.Sprintf(" (store at op %d drained after op %d)", r.Reorder.Store, r.Reorder.Past)
		}
		return s
	}
}

// Narrative renders a multi-line tier explanation for the given trace,
// suitable for appending to a witness rendering. The trace must be the
// one passed to Adjudicate.
func (r Result) Narrative(t trace.Trace) string {
	var sb strings.Builder
	if !r.Checked {
		fmt.Fprintf(&sb, "consistency tier: skipped (trace of %d ops exceeds the adjudication limit)\n", r.Ops)
		return sb.String()
	}
	fmt.Fprintf(&sb, "consistency tier: %s\n", r.Tier)
	switch r.Tier {
	case TierSC:
		if w := boundedreorder.MinWindow(t); w >= 0 {
			fmt.Fprintf(&sb, "  the rejected core has a serial reordering (within a %d-op reorder\n", w)
			sb.WriteString("  window) — the rejection reflects inadequate annotation, not a real\n")
			sb.WriteString("  SC violation\n")
		} else {
			sb.WriteString("  the rejected core has a serial reordering — the rejection reflects\n")
			sb.WriteString("  inadequate annotation, not a real SC violation\n")
		}
	case TierTSO, TierPSO:
		kind := "FIFO store buffers (TSO)"
		if r.Tier == TierPSO {
			kind = "per-block-FIFO store buffers (PSO)"
		}
		fmt.Fprintf(&sb, "  the core is explained by %s:\n", kind)
		if r.Reorder != nil && r.Reorder.Store < len(t) && r.Reorder.Past < len(t) {
			fmt.Fprintf(&sb, "  %s (op %d) stayed buffered while %s (op %d) committed\n",
				t[r.Reorder.Store], r.Reorder.Store, t[r.Reorder.Past], r.Reorder.Past)
		}
	case TierCausal:
		sb.WriteString("  every process can serialize all writes plus its own reads in causal\n")
		sb.WriteString("  ((program order ∪ reads-from)⁺) order — but no store-buffer machine\n")
		sb.WriteString("  and no single serial order admits the core\n")
	case TierPRAM:
		sb.WriteString("  every process can serialize all writes plus its own reads respecting\n")
		sb.WriteString("  per-writer program order — but the serializations disagree on causality\n")
	case TierNone:
		if r.FailProc != 0 {
			fmt.Fprintf(&sb, "  not even PRAM-consistent: process P%d has no serialization of the\n", r.FailProc)
			sb.WriteString("  writes plus its own reads that respects per-writer program order\n")
		} else {
			sb.WriteString("  not even PRAM-consistent\n")
		}
	}
	ladder := make([]string, 0, NumTiers-1)
	for tier := TierSC; tier > TierNone; tier-- {
		mark := "✗"
		if r.Passed[tier] {
			mark = "✓"
		}
		ladder = append(ladder, fmt.Sprintf("%s %s", tier, mark))
	}
	fmt.Fprintf(&sb, "  ladder: %s\n", strings.Join(ladder, " · "))
	if r.Bounded {
		sb.WriteString("  (a rung hit its search budget; unsatisfied tiers below it are a lower bound)\n")
	}
	return sb.String()
}
