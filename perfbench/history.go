package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"scverify/internal/checker"
	"scverify/internal/history"
)

// History workload shape: histories of histOps operations by 5 processes
// over 4 keys, with failed and indeterminate operations; every
// anomalyEvery-th history carries one injected anomaly.
const (
	histories    = 140
	histOps      = 3000
	anomalyEvery = 4
)

type histCase struct {
	jsonl  []byte
	reject bool
	expect checker.Constraint // the constraint a rejection must name
	label  string
}

type historyLoad struct {
	corpus []histCase
}

func (h *historyLoad) workUnit() string { return "history ops" }
func (h *historyLoad) close()           {}

// setup generates the corpus as JSONL, with each history's expected
// verdict taken from the generator's injection record.
func (h *historyLoad) setup(seed int64) error {
	h.corpus = h.corpus[:0]
	kinds := history.AllAnomalies()
	for i := 0; i < histories; i++ {
		cfg := history.GenConfig{
			Seed: seed*1_000_003 + int64(i), Processes: 5, Keys: 4, Ops: histOps,
			FailEvery: 11, InfoEvery: 13,
		}
		if i%anomalyEvery == anomalyEvery-1 {
			cfg.Anomalies = []history.AnomalyKind{kinds[(i/anomalyEvery)%len(kinds)]}
		}
		g, err := history.Generate(cfg)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := g.History.WriteJSONL(&buf); err != nil {
			return err
		}
		c := histCase{jsonl: buf.Bytes(), label: fmt.Sprintf("history %d", i)}
		if len(g.Anomalies) > 0 {
			a := g.Anomalies[0]
			if a.Expect != a.Kind.Constraint() {
				return fmt.Errorf("%s: record expects %v for %v", c.label, a.Expect, a.Kind)
			}
			c.reject, c.expect = true, a.Expect
			c.label += " (" + a.Kind.String() + ")"
		}
		h.corpus = append(h.corpus, c)
	}
	return nil
}

func checkHistory(c histCase, err error) error {
	var re *checker.RejectError
	switch {
	case !c.reject && err == nil:
		return nil
	case !c.reject:
		return fmt.Errorf("rejected a clean history: %v", err)
	case err == nil:
		return fmt.Errorf("accepted, want rejection (%v)", c.expect)
	case !errors.As(err, &re):
		return fmt.Errorf("error %v, want rejection (%v)", err, c.expect)
	case re.Constraint != c.expect:
		return fmt.Errorf("rejected with %v, want %v", re.Constraint, c.expect)
	}
	return nil
}

func (h *historyLoad) pass(t *tracer) passResult {
	var r passResult
	for i, c := range h.corpus {
		r.attempted++
		var (
			ops int
			err error
			d   time.Duration
		)
		if t != nil {
			t.setOp(i)
			ops, err = tracedHistory(t, c)
		} else {
			t0 := time.Now()
			ops, err = checkOne(c)
			d = time.Since(t0)
		}
		r.work += int64(ops)
		if err != nil {
			r.fail("%s: %v", c.label, err)
		} else if t == nil && !c.reject {
			r.latencies = append(r.latencies, float64(d)/1e6)
		}
	}
	return r
}

// checkOne is one `sccheck history` run: parse, lower, check.
func checkOne(c histCase) (ops int, err error) {
	hist, err := history.ParseJSONL(bytes.NewReader(c.jsonl))
	if err != nil {
		return 0, err
	}
	l, err := history.Lower(hist)
	if err != nil {
		return 0, err
	}
	return len(l.Ops), checkHistory(c, l.Check())
}

// Span names of the traced history check.
const (
	spParse = "history.parse"
	spLower = "history.lower"
)

// tracedHistory is checkOne with spans; Lowering.Check is re-enacted so
// that each checker.Step is timed.
func tracedHistory(t *tracer, c histCase) (int, error) {
	var (
		idParse = t.id(spParse)
		idLower = t.id(spLower)
		idStep  = t.id(spChkStep)
	)
	t.begin(idParse)
	hist, err := history.ParseJSONL(bytes.NewReader(c.jsonl))
	t.end()
	if err != nil {
		return 0, err
	}
	t.begin(idLower)
	l, err := history.Lower(hist)
	t.end()
	if err != nil {
		return 0, err
	}
	t.count("history.ops", int64(len(l.Ops)))
	t.count("history.symbols", int64(len(l.Stream)))
	t.count("history.dropped", int64(l.Dropped.Total()))

	chk := checker.New(l.K)
	if l.Params.Procs > 0 {
		chk.SetParams(l.Params)
	}
	for _, sym := range l.Stream {
		t.begin(idStep)
		err = chk.Step(sym)
		t.end()
		if err != nil {
			return len(l.Ops), checkHistory(c, err)
		}
	}
	return len(l.Ops), checkHistory(c, chk.Finish())
}

func (h *historyLoad) layers(t *tracer) []metric {
	parsed := make([]*history.History, len(h.corpus))
	parseB, _ := allocPerCall(len(h.corpus), func(i int) {
		parsed[i], _ = history.ParseJSONL(bytes.NewReader(h.corpus[i].jsonl))
	})
	lowerB, _ := allocPerCall(len(parsed), func(i int) { history.Lower(parsed[i]) })
	ops := float64(t.counts["history.ops"])
	return []metric{
		{"history.parse_ns", t.selfPerCall(spParse), "ns"},
		{"history.parse_b", parseB, "B"},
		{"history.lower_ns", t.selfPerCall(spLower), "ns"},
		{"history.lower_b", lowerB, "B"},
		{"checker.step_ns", t.selfPerCall(spChkStep), "ns"},
		{"history.symbols_per_op", float64(t.counts["history.symbols"]) / ops, "symbols"},
		{"history.drop_ratio", float64(t.counts["history.dropped"]) / ops, "ratio"},
	}
}
