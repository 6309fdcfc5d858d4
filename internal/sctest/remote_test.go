package sctest

import (
	"context"
	"net"
	"testing"
	"time"

	"scverify/internal/registry"
	"scverify/internal/scserve"
	"scverify/internal/trace"
)

// TestRemoteCheckerMatchesLocal runs the same campaigns through the
// in-process checker and through a live scserve service: the per-run
// verdicts — and therefore every campaign counter — must agree exactly,
// for an SC protocol (all accepts) and a non-SC one (mixed).
func TestRemoteCheckerMatchesLocal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := scserve.New(scserve.Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}()

	params := trace.Params{Procs: 2, Blocks: 2, Values: 2}
	for _, name := range []string{"msi", "storebuffer"} {
		tgt, err := registry.Build(name, registry.Options{Params: params})
		if err != nil {
			t.Fatal(err)
		}
		base := Config{Runs: 40, Steps: 14, Seed: 7, Exact: true, ExactLimit: 10, Workers: 4}
		local := Campaign(tgt, base)
		remoteCfg := base
		remoteCfg.Check = RemoteRun(scserve.NewRetryClient(ln.Addr().String(), scserve.RetryConfig{Timeout: 30 * time.Second}))
		remote := Campaign(tgt, remoteCfg)

		if local.Accepted != remote.Accepted || local.Rejected != remote.Rejected ||
			local.NonSCConfirmed != remote.NonSCConfirmed || local.RejectedButSC != remote.RejectedButSC ||
			local.SoundnessBreaks != remote.SoundnessBreaks {
			t.Errorf("%s: local %v != remote %v", name, local, remote)
		}
		if name == "msi" && remote.Rejected != 0 {
			t.Errorf("msi: %d remote rejections: %v", remote.Rejected, remote.FirstCause)
		}
		if name == "storebuffer" && remote.Rejected == 0 {
			t.Errorf("storebuffer: campaign found no violations remotely")
		}
	}
}
