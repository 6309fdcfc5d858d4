package sctest

import (
	"errors"
	"fmt"

	"scverify/internal/checker"
	"scverify/internal/history"
	"scverify/internal/scserve"
	"scverify/internal/spectrum"
)

// HistoryChecker adjudicates one lowered history: nil on acceptance, a
// *checker.RejectError or *scserve.VerdictError on rejection, anything
// else on transport or environmental failure. Implementations must be
// safe for concurrent campaign workers.
type HistoryChecker func(l *history.Lowering) error

func historyHeader(l *history.Lowering) scserve.Header {
	k := l.K
	if k < 1 {
		// An empty lowering has bandwidth 0; the wire protocol requires
		// k >= 1 and any k accepts an empty stream.
		k = 1
	}
	return scserve.Header{K: k, Params: l.Params}
}

// RejectConstraint extracts the checker constraint code from a rejection,
// whether it was adjudicated in-process (*checker.RejectError) or by a
// service (*scserve.VerdictError carrying the witness extension). ok is
// false for nil errors, transport errors, and service rejections from
// pre-extension peers that did not classify the constraint.
func RejectConstraint(err error) (checker.Constraint, bool) {
	var re *checker.RejectError
	if errors.As(err, &re) {
		return re.Constraint, true
	}
	var ve *scserve.VerdictError
	if errors.As(err, &ve) && ve.Verdict.Code == scserve.VerdictReject && ve.Verdict.Constraint > 0 {
		return checker.Constraint(ve.Verdict.Constraint), true
	}
	return 0, false
}

// HistoryConfig tunes a history campaign: for each seed, one anomaly-free
// history plus one history per anomaly kind is generated, lowered, and
// adjudicated. Clean histories must be accepted; anomalous histories must
// be rejected with the anomaly's expected constraint code.
type HistoryConfig struct {
	Seeds int   // seeds to sweep; each seed yields 1+len(Anomalies) histories
	Seed  int64 // base seed; sweep uses Seed, Seed+1, ...
	// Gen shapes the base workload (its Seed and Anomalies fields are
	// overridden per item).
	Gen history.GenConfig
	// Anomalies selects the kinds to inject; nil means all of them.
	Anomalies []history.AnomalyKind
	// Workers fans items across a pool; 0 or 1 is sequential. Results are
	// deterministic regardless of worker count.
	Workers int
	// Check adjudicates each lowering; nil means the in-process checker.
	Check HistoryChecker
	// Tier adjudicates every anomalous rejection's witness core against
	// the weaker-model ladder (wire tier when the checker is a tiered
	// service, local TierWitness otherwise, cross-checked when both
	// resolve) and verifies it matches the injected kind's declared tier.
	Tier bool
}

// HistoryFailure pins one unexpected campaign outcome.
type HistoryFailure struct {
	Seed    int64
	Anomaly *history.Anomaly // nil for a clean-history failure
	Err     error            // the verdict (or transport error) received
	// Lowering is the offending history's lowering, for witness rendering.
	Lowering *history.Lowering
}

// String renders the failure one-line.
func (f *HistoryFailure) String() string {
	if f.Anomaly == nil {
		return fmt.Sprintf("seed %d: clean history not accepted: %v", f.Seed, f.Err)
	}
	return fmt.Sprintf("seed %d: %s: got %v", f.Seed, f.Anomaly, f.Err)
}

// HistoryResult aggregates a history campaign.
type HistoryResult struct {
	Histories     int // total adjudicated
	CleanAccepted int
	CleanRejected int // clean histories rejected: generator or checker bug
	AnomalyCaught int // anomalous histories rejected with the expected code
	AnomalyMissed int // anomalous histories accepted: a missed violation
	WrongCode     int // rejected, but with an unexpected constraint code
	Errors        int // generation, lowering, or transport failures

	// Tiers histograms caught anomalies by adjudicated tier (indexed by
	// spectrum.Tier); TierUnchecked counts rejections whose core no side
	// could adjudicate (legal), and WrongTier counts tiers that differ
	// from the anomaly kind's declared tier or between service and local
	// adjudication (never legal).
	Tiers         [spectrum.NumTiers]int
	TierUnchecked int
	WrongTier     int

	// FirstUnexpected retains the first non-conforming outcome in item
	// order, for rendering.
	FirstUnexpected *HistoryFailure
}

// Passed reports whether every history behaved as scripted.
func (r HistoryResult) Passed() bool {
	return r.CleanRejected == 0 && r.AnomalyMissed == 0 && r.WrongCode == 0 &&
		r.WrongTier == 0 && r.Errors == 0
}

// String renders a one-line summary.
func (r HistoryResult) String() string {
	s := fmt.Sprintf("%d histories: %d clean accepted, %d anomalies caught",
		r.Histories, r.CleanAccepted, r.AnomalyCaught)
	if r.CleanRejected > 0 {
		s += fmt.Sprintf(", %d clean REJECTED", r.CleanRejected)
	}
	if r.AnomalyMissed > 0 {
		s += fmt.Sprintf(", %d anomalies MISSED", r.AnomalyMissed)
	}
	if r.WrongCode > 0 {
		s += fmt.Sprintf(", %d wrong constraint codes", r.WrongCode)
	}
	if r.WrongTier > 0 {
		s += fmt.Sprintf(", %d wrong tiers", r.WrongTier)
	}
	if r.Errors > 0 {
		s += fmt.Sprintf(", %d errors", r.Errors)
	}
	if tl := tierLine(r.Tiers, r.TierUnchecked, 0); tl != "" {
		s += "; " + tl
	}
	return s
}

// historyItem is one campaign work unit: a seed plus an optional anomaly.
type historyItem struct {
	seed    int64
	anomaly int // index into kinds, or -1 for the clean history
}

// historyVerdict is one item's outcome.
type historyVerdict struct {
	item     historyItem
	anomaly  *history.Anomaly
	lowering *history.Lowering
	err      error // adjudication outcome (nil = accepted)
	genErr   error // generation/lowering failure (counted as an error)
	tv       tierVerdict
}

// HistoryCampaign sweeps generated histories through the adjudicator:
// per seed, one clean history and one per anomaly kind.
func HistoryCampaign(cfg HistoryConfig) HistoryResult {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	kinds := cfg.Anomalies
	if kinds == nil {
		kinds = history.AllAnomalies()
	}
	check := cfg.Check
	if check == nil {
		check = func(l *history.Lowering) error { return l.Check() }
	}

	var items []historyItem
	for s := 0; s < cfg.Seeds; s++ {
		items = append(items, historyItem{seed: cfg.Seed + int64(s), anomaly: -1})
		for a := range kinds {
			items = append(items, historyItem{seed: cfg.Seed + int64(s), anomaly: a})
		}
	}

	classify := func(it historyItem) historyVerdict {
		v := historyVerdict{item: it}
		gc := cfg.Gen
		gc.Seed = it.seed
		gc.Anomalies = nil
		if it.anomaly >= 0 {
			gc.Anomalies = []history.AnomalyKind{kinds[it.anomaly]}
		}
		g, err := history.Generate(gc)
		if err != nil {
			v.genErr = err
			return v
		}
		if it.anomaly >= 0 {
			v.anomaly = &g.Anomalies[0]
		}
		l, err := history.Lower(g.History)
		if err != nil {
			v.genErr = err
			return v
		}
		v.lowering = l
		v.err = check(l)
		if cfg.Tier && v.anomaly != nil && v.err != nil {
			v.tv = adjudicateTier(v.err, func() (spectrum.Result, bool) {
				return HistoryTier(l)
			})
		}
		return v
	}

	verdicts := make([]historyVerdict, len(items))
	fanOut(len(items), cfg.Workers, func(i int) { verdicts[i] = classify(items[i]) })

	// Ordered aggregation keeps FirstUnexpected deterministic.
	var res HistoryResult
	fail := func(v historyVerdict, err error) {
		if res.FirstUnexpected == nil {
			res.FirstUnexpected = &HistoryFailure{
				Seed: v.item.seed, Anomaly: v.anomaly, Err: err, Lowering: v.lowering,
			}
		}
	}
	for _, v := range verdicts {
		res.Histories++
		if v.genErr != nil {
			res.Errors++
			fail(v, v.genErr)
			continue
		}
		switch {
		case v.anomaly == nil && v.err == nil:
			res.CleanAccepted++
		case v.anomaly == nil:
			if _, ok := RejectConstraint(v.err); ok {
				res.CleanRejected++
			} else {
				res.Errors++ // transport failure, not a verdict
			}
			fail(v, v.err)
		case v.err == nil:
			res.AnomalyMissed++
			fail(v, fmt.Errorf("accepted despite injected %s", v.anomaly.Kind))
		default:
			got, ok := RejectConstraint(v.err)
			switch {
			case !ok:
				res.Errors++
				fail(v, v.err)
			case got != v.anomaly.Expect:
				res.WrongCode++
				fail(v, v.err)
			default:
				res.AnomalyCaught++
				if cfg.Tier {
					switch {
					case v.tv.wrong:
						res.WrongTier++
						fail(v, fmt.Errorf("service and local tier adjudication disagree: %v", v.err))
					case v.tv.tierOK && v.tv.tier != v.anomaly.Kind.Tier():
						res.WrongTier++
						fail(v, fmt.Errorf("%s adjudicated to tier %s, want %s",
							v.anomaly.Kind, v.tv.tier, v.anomaly.Kind.Tier()))
					case v.tv.tierOK && int(v.tv.tier) < len(res.Tiers):
						res.Tiers[v.tv.tier]++
					default:
						res.TierUnchecked++
					}
				}
			}
		}
	}
	return res
}
