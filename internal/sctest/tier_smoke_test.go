package sctest

import (
	"testing"
	"time"

	"scverify/internal/history"
	"scverify/internal/registry"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
	"scverify/internal/spectrum"
	"scverify/internal/trace"
)

// TestTierSmokeGrid is the tier-1 tiered-verdict acceptance test: a
// tiered run campaign and a tiered history campaign, both adjudicated
// through a three-backend scgrid fabric. Every delivered rejection's wire
// tier is cross-checked against the identical local adjudication (a
// single disagreement fails the campaign via WrongTiers), the
// reject-heavy storebuffer target must produce TSO-tier rejections (its
// violations are store-buffering by construction), and every injected
// history anomaly must land on its kind's declared tier.
func TestTierSmokeGrid(t *testing.T) {
	backends := []*gridBackend{startGridBackend(t), startGridBackend(t), startGridBackend(t)}
	g, err := scgrid.New(
		[]string{backends[0].addr, backends[1].addr, backends[2].addr},
		scgrid.Config{
			RetryConfig: scserve.RetryConfig{
				Seed:        7,
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

	tgt, err := registry.Build("storebuffer", registry.Options{
		Params: trace.Params{Procs: 2, Blocks: 2, Values: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Campaign(tgt, Config{
		Runs:    24,
		Steps:   400,
		Seed:    11,
		Workers: 4,
		Check:   RemoteRun(g, Tiered()),
		Tier:    true,
	})
	t.Logf("runs: %s", res)
	if res.Rejected == 0 {
		t.Fatal("storebuffer campaign produced no rejection — the smoke proved nothing")
	}
	if res.WrongTiers != 0 {
		t.Fatalf("%d wrong tiers: grid and local adjudication disagree", res.WrongTiers)
	}
	tiered := 0
	for _, n := range res.Tiers {
		tiered += n
	}
	if tiered == 0 {
		t.Fatal("no rejection carried a tier verdict")
	}
	if res.Tiers[spectrum.TierTSO] == 0 {
		t.Errorf("storebuffer rejections never adjudicated to TSO: %s", res)
	}

	// The same fabric adjudicating a tiered history campaign: every
	// anomaly caught with its expected constraint AND its declared tier
	// (WrongTier folds into Passed).
	hres := HistoryCampaign(HistoryConfig{
		Seeds:   4,
		Seed:    2,
		Gen:     history.GenConfig{Processes: 3, Keys: 2, Ops: 20},
		Workers: 4,
		Check:   RemoteHistory(g, Tiered()),
		Tier:    true,
	})
	t.Logf("histories: %s", hres)
	if !hres.Passed() {
		t.Fatalf("tiered history campaign failed: %s\nfirst unexpected: %s",
			hres, renderHistoryFailure(hres.FirstUnexpected))
	}
	htiered := 0
	for _, n := range hres.Tiers {
		htiered += n
	}
	if htiered == 0 {
		t.Fatal("no history rejection carried a tier verdict")
	}
	if htiered+hres.TierUnchecked != hres.AnomalyCaught {
		t.Fatalf("tier accounting leaks: %d tiered + %d unadjudicated != %d caught",
			htiered, hres.TierUnchecked, hres.AnomalyCaught)
	}

	// The backends actually computed the tiers the wire carried.
	computed := int64(0)
	for _, b := range backends {
		computed += b.srv.Stats().TiersComputed
	}
	if computed == 0 {
		t.Fatal("no backend reports computing a tier")
	}
}
