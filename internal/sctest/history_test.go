package sctest

import (
	"testing"
	"time"

	"scverify/internal/history"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
)

// TestHistorySmokeCampaign is the tier-1 history acceptance test: a
// deterministic campaign of generated replicated-KV histories where every
// anomaly-free history must be accepted and every injected anomaly must
// be rejected with its expected constraint code — adjudicated in-process,
// then again through a three-backend scgrid fabric, whose verdicts must
// agree with the local checker's exactly.
func TestHistorySmokeCampaign(t *testing.T) {
	cfg := HistoryConfig{
		Seeds:   8,
		Seed:    1,
		Gen:     history.GenConfig{Processes: 4, Keys: 3, Ops: 60, FailEvery: 9, InfoEvery: 11},
		Workers: 4,
	}

	local := HistoryCampaign(cfg)
	t.Logf("local: %s", local)
	if !local.Passed() {
		t.Fatalf("local history campaign failed: %s\nfirst unexpected: %s",
			local, renderHistoryFailure(local.FirstUnexpected))
	}
	wantHistories := cfg.Seeds * (1 + len(history.AllAnomalies()))
	if local.Histories != wantHistories {
		t.Fatalf("campaign covered %d histories, want %d", local.Histories, wantHistories)
	}
	if local.AnomalyCaught != cfg.Seeds*len(history.AllAnomalies()) {
		t.Fatalf("anomalies caught = %d, want %d", local.AnomalyCaught, cfg.Seeds*len(history.AllAnomalies()))
	}

	// The same campaign adjudicated through the grid fabric: three
	// backends, tokened sessions, dispatcher placement.
	backends := []*gridBackend{startGridBackend(t), startGridBackend(t), startGridBackend(t)}
	g, err := scgrid.New(
		[]string{backends[0].addr, backends[1].addr, backends[2].addr},
		scgrid.Config{
			RetryConfig: scserve.RetryConfig{
				Seed:        2,
				Timeout:     5 * time.Second,
				MaxAttempts: 4,
				BaseDelay:   time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	gridCfg := cfg
	gridCfg.Check = RemoteHistory(g)
	viaGrid := HistoryCampaign(gridCfg)
	t.Logf("grid:  %s", viaGrid)
	if !viaGrid.Passed() {
		t.Fatalf("grid history campaign failed: %s\nfirst unexpected: %s",
			viaGrid, renderHistoryFailure(viaGrid.FirstUnexpected))
	}
	if viaGrid.CleanAccepted != local.CleanAccepted || viaGrid.AnomalyCaught != local.AnomalyCaught {
		t.Fatalf("grid verdicts diverge from local: local %s, grid %s", local, viaGrid)
	}
	stats := g.Stats()
	placed := int64(0)
	for _, b := range stats.Backends {
		placed += b.Sessions
	}
	if placed < int64(wantHistories) {
		t.Errorf("grid placed %d sessions, want >= %d", placed, wantHistories)
	}
}

// TestHistoryRemoteChecker pins the single-server path: one clean and one
// anomalous history adjudicated through scserve, verdicts matching local.
func TestHistoryRemoteChecker(t *testing.T) {
	b := startGridBackend(t)
	check := RemoteHistory(scserve.NewRetryClient(b.addr, scserve.RetryConfig{Timeout: 5 * time.Second}))

	clean, err := history.Generate(history.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	l, err := history.Lower(clean.History)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(l); err != nil {
		t.Errorf("clean history rejected remotely: %v", err)
	}

	bad, err := history.Generate(history.GenConfig{Seed: 3, Anomalies: []history.AnomalyKind{history.AnomalyStaleRead}})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := history.Lower(bad.History)
	if err != nil {
		t.Fatal(err)
	}
	err = check(lb)
	got, ok := RejectConstraint(err)
	if !ok || got != history.AnomalyStaleRead.Constraint() {
		t.Errorf("remote rejection = %v (constraint %v, ok=%v), want %v",
			err, got, ok, history.AnomalyStaleRead.Constraint())
	}
}

func renderHistoryFailure(f *HistoryFailure) string {
	if f == nil {
		return "<none>"
	}
	s := f.String()
	if f.Lowering != nil {
		if w := f.Lowering.Explain(); w != nil {
			s += "\n" + w.Render()
		}
	}
	return s
}
