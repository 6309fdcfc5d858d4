package main

import (
	"testing"

	"scverify/internal/checker"
	"scverify/internal/mc"
)

// Each smoke test runs a few ops of a workload, untraced and traced, with
// one expected verdict made wrong: that op, and only that op, must count
// as failed.

func checkFailed(t *testing.T, w workload, want int) {
	t.Helper()
	for _, tr := range []*tracer{nil, newTracer()} {
		r := w.pass(tr)
		if r.failed != want {
			t.Errorf("traced=%v: %d of %d ops failed, want %d: %v", tr != nil, r.failed, r.attempted, want, r.failures)
		}
	}
}

func TestExploreCountsWrongVerdictAsFailed(t *testing.T) {
	e := &explore{}
	if err := e.setup(1); err != nil {
		t.Fatal(err)
	}
	var small, sb exploreInput
	for _, in := range e.inputs {
		switch {
		case in.op.timed:
			small = in
		case in.op.verdict == mc.Violated:
			sb = in
		}
	}
	wrongVerdict, wrongCount := small, small
	wrongVerdict.op.verdict = mc.Verified
	wrongCount.op.states++
	e.inputs = []exploreInput{small, sb}
	checkFailed(t, e, 0)
	e.inputs = []exploreInput{small, sb, wrongVerdict}
	checkFailed(t, e, 1)
	e.inputs = []exploreInput{wrongCount, sb}
	checkFailed(t, e, 1)
}

func TestSessionCountsWrongVerdictAsFailed(t *testing.T) {
	s := &session{}
	if err := s.setup(1); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ops := s.ops[:sbEvery] // directory sessions with and without tokens, one storebuffer
	s.ops = ops
	checkFailed(t, s, 0)

	acceptWrong := *ops[0].stream
	acceptWrong.accept, acceptWrong.symbol = false, 5
	sb := ops[sbEvery-1]
	indexWrong := *sb.stream
	indexWrong.symbol++
	s.ops = append([]sessionOp{{stream: &acceptWrong, timed: true}, {stream: &indexWrong, token: true}}, ops...)
	checkFailed(t, s, 2)
}

func TestHistoryCountsWrongVerdictAsFailed(t *testing.T) {
	h := &historyLoad{}
	if err := h.setup(1); err != nil {
		t.Fatal(err)
	}
	cases := h.corpus[:anomalyEvery] // three clean histories and one anomaly
	h.corpus = cases
	checkFailed(t, h, 0)

	clean, anomaly := cases[0], cases[anomalyEvery-1]
	clean.reject, clean.expect = true, checker.ConstraintCycle
	anomaly.expect++
	h.corpus = append([]histCase{clean, anomaly}, cases...)
	checkFailed(t, h, 2)
}
