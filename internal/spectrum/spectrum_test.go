package spectrum

import (
	"math/rand"
	"strings"
	"testing"

	"scverify/internal/trace"
)

// The classic litmus traces, each pinned to the tier it should land on.
// These are the executions the ladder exists to tell apart.
func TestLitmusTiers(t *testing.T) {
	cases := []struct {
		name string
		tr   trace.Trace
		want Tier
	}{
		{
			// Store buffering (Dekker): both loads overtake the local
			// store and read ⊥. The canonical TSO-but-not-SC execution.
			name: "store-buffering",
			tr: trace.Trace{
				trace.ST(1, 1, 1), trace.LD(1, 2, trace.Bottom),
				trace.ST(2, 2, 1), trace.LD(2, 1, trace.Bottom),
			},
			want: TierTSO,
		},
		{
			// Relaxed message passing (the Figure-1 shape): the flag
			// store drains before the data store. Needs store-store
			// reordering, so PSO but not TSO; the reads-from edge makes
			// it causally inconsistent too.
			name: "message-passing-relaxed",
			tr: trace.Trace{
				trace.ST(1, 1, 1), trace.ST(1, 2, 2),
				trace.LD(2, 2, 2), trace.LD(2, 1, trace.Bottom),
			},
			want: TierPSO,
		},
		{
			// IRIW: two readers disagree on the order of independent
			// writes. No store-buffer machine admits it, but the writes
			// are causally unrelated, so causal consistency does.
			name: "iriw",
			tr: trace.Trace{
				trace.ST(1, 1, 1), trace.ST(2, 2, 1),
				trace.LD(3, 1, 1), trace.LD(3, 2, trace.Bottom),
				trace.LD(4, 2, 1), trace.LD(4, 1, trace.Bottom),
			},
			want: TierCausal,
		},
		{
			// Causality chain dropped: P3 sees P2's write (which reads
			// P1's) but not P1's. PRAM's per-writer orders are satisfied
			// but the causal closure is not.
			name: "causality-violation",
			tr: trace.Trace{
				trace.ST(1, 1, 1),
				trace.LD(2, 1, 1), trace.ST(2, 2, 2),
				trace.LD(3, 2, 2), trace.LD(3, 1, trace.Bottom),
			},
			want: TierPRAM,
		},
		{
			// A processor missing its own write: not even PRAM.
			name: "read-own-writes-violation",
			tr: trace.Trace{
				trace.ST(1, 1, 1), trace.LD(1, 1, trace.Bottom),
			},
			want: TierNone,
		},
		{
			// A value loaded out of thin air fails every rung.
			name: "phantom-value",
			tr:   trace.Trace{trace.LD(1, 1, 5)},
			want: TierNone,
		},
		{
			// An SC trace: adjudication reports annotation inadequacy.
			name: "actually-sc",
			tr:   trace.Trace{trace.ST(1, 1, 1), trace.LD(2, 1, 1)},
			want: TierSC,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Adjudicate(tc.tr, Options{})
			if !res.Checked {
				t.Fatalf("Adjudicate did not check a %d-op trace", len(tc.tr))
			}
			if res.Tier != tc.want {
				t.Fatalf("tier = %v, want %v (passed: %v)", res.Tier, tc.want, res.Passed)
			}
			if res.Bounded {
				t.Errorf("litmus trace hit the search budget")
			}
			switch tc.want {
			case TierTSO, TierPSO:
				if res.Reorder == nil {
					t.Errorf("no reorder site extracted for %v tier", res.Tier)
				} else if !tc.tr[res.Reorder.Store].IsStore() {
					t.Errorf("reorder site %+v does not name a store", res.Reorder)
				}
			case TierNone:
				if res.FailProc == 0 {
					t.Errorf("no failing process named for TierNone")
				}
			}

			// The same trace with processor p renamed p<<40 and block b
			// renamed b-1000 (orders kept), as a decoded stream may carry
			// them: same result, failing process named by its own ID.
			spread := tc.tr.Clone()
			for i := range spread {
				spread[i].Proc <<= 40
				spread[i].Block -= 1000
			}
			got := Adjudicate(spread, Options{})
			want := res
			want.FailProc <<= 40
			if got.Tier != want.Tier || got.Passed != want.Passed || got.FailProc != want.FailProc ||
				(got.Reorder == nil) != (want.Reorder == nil) || (got.Reorder != nil && *got.Reorder != *want.Reorder) {
				t.Errorf("spread IDs: %+v, want %+v", got, want)
			}
		})
	}
}

func TestTierString(t *testing.T) {
	want := map[Tier]string{
		TierNone: "none", TierPRAM: "PRAM", TierCausal: "causal",
		TierPSO: "PSO", TierTSO: "TSO", TierSC: "SC", Tier(9): "tier(9)",
	}
	for tier, s := range want {
		if got := tier.String(); got != s {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, s)
		}
	}
	if Tier(9).Valid() || Tier(-1).Valid() {
		t.Errorf("out-of-range tiers reported valid")
	}
	for tier := TierNone; tier < NumTiers; tier++ {
		if !tier.Valid() {
			t.Errorf("%v reported invalid", tier)
		}
	}
}

func TestLimit(t *testing.T) {
	long := make(trace.Trace, DefaultLimit+1)
	for i := range long {
		long[i] = trace.ST(1, 1, 1)
	}
	if res := Adjudicate(long, Options{}); res.Checked {
		t.Errorf("default limit did not skip a %d-op trace", len(long))
	}
	if res := Adjudicate(long, Options{Limit: len(long)}); !res.Checked {
		t.Errorf("explicit limit %d skipped a %d-op trace", len(long), len(long))
	}
	if res := Adjudicate(trace.Trace{trace.ST(1, 1, 1)}, Options{Limit: -1}); res.Checked {
		t.Errorf("negative limit still adjudicated")
	}
}

// The lattice invariants, exercised over random small traces: the SC rung
// agrees with the exact serial-reordering search, the entailments
// TSO⟹PSO, causal⟹PRAM and SC⟹everything hold, and the reported tier is
// exactly the first satisfied rung of the ladder.
func TestLatticeInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.Intn(5)
		tr := make(trace.Trace, n)
		for i := range tr {
			p := trace.ProcID(1 + rng.Intn(3))
			b := trace.BlockID(1 + rng.Intn(2))
			v := trace.Value(1 + rng.Intn(2))
			if rng.Intn(2) == 0 {
				tr[i] = trace.ST(p, b, v)
			} else {
				if rng.Intn(3) == 0 {
					v = trace.Bottom
				}
				tr[i] = trace.LD(p, b, v)
			}
		}
		res := Adjudicate(tr, Options{})
		if !res.Checked {
			t.Fatalf("random %d-op trace not checked", n)
		}
		if res.Bounded {
			continue // budget hit: tiers are a lower bound, skip exactness checks
		}
		if got, want := res.Passed[TierSC], trace.HasSerialReordering(tr); got != want {
			t.Fatalf("trace %v: SC rung %v, exact search %v", tr, got, want)
		}
		if res.Passed[TierTSO] && !res.Passed[TierPSO] {
			t.Fatalf("trace %v: TSO passed but PSO failed", tr)
		}
		if res.Passed[TierCausal] && !res.Passed[TierPRAM] {
			t.Fatalf("trace %v: causal passed but PRAM failed", tr)
		}
		if res.Passed[TierSC] && res.Tier != TierSC {
			t.Fatalf("trace %v: SC passed but tier %v reported", tr, res.Tier)
		}
		first := TierNone
		for tier := TierSC; tier > TierNone; tier-- {
			if res.Passed[tier] {
				first = tier
				break
			}
		}
		if res.Tier != first {
			t.Fatalf("trace %v: tier %v is not the first satisfied rung %v (passed %v)",
				tr, res.Tier, first, res.Passed)
		}
	}
}

func TestNarrative(t *testing.T) {
	sb := trace.Trace{
		trace.ST(1, 1, 1), trace.LD(1, 2, trace.Bottom),
		trace.ST(2, 2, 1), trace.LD(2, 1, trace.Bottom),
	}
	res := Adjudicate(sb, Options{})
	n := res.Narrative(sb)
	for _, want := range []string{"consistency tier: TSO", "stayed buffered", "ladder:"} {
		if !strings.Contains(n, want) {
			t.Errorf("TSO narrative missing %q:\n%s", want, n)
		}
	}
	sc := trace.Trace{trace.ST(1, 1, 1), trace.LD(2, 1, 1)}
	res = Adjudicate(sc, Options{})
	if n := res.Narrative(sc); !strings.Contains(n, "annotation") {
		t.Errorf("SC narrative missing inadequacy wording:\n%s", n)
	}
	long := make(trace.Trace, DefaultLimit+1)
	for i := range long {
		long[i] = trace.ST(1, 1, 1)
	}
	res = Adjudicate(long, Options{})
	if n := res.Narrative(long); !strings.Contains(n, "skipped") {
		t.Errorf("unchecked narrative missing skip notice:\n%s", n)
	}
}
