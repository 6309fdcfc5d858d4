package sctest

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"scverify/internal/faultnet"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/scserve"
	"scverify/internal/trace"
)

// chaosCase is one protocol's slice of the soak.
type chaosCase struct {
	name  string
	runs  int
	steps int
}

// TestChaosSoakRegistry is the fault-tolerance acceptance test: the full
// protocol registry is adjudicated through an scserve service behind a
// fault-injected link that fragments writes, delays reads, and cuts every
// connection after a fixed byte budget — forcing mid-stream resumes. The
// invariant under test is degrade-to-error: a fault may surface as a
// transport error (counted, tolerated) but every verdict that IS
// delivered must equal the local checker's verdict on the same run. One
// wrong verdict fails the test.
//
// The default run is deterministic and takes a few seconds. Set
// SCSERVE_SOAK to a duration (e.g. "2m") for a long randomized soak.
func TestChaosSoakRegistry(t *testing.T) {
	seed := int64(1)
	deadline := time.Time{}
	if d := os.Getenv("SCSERVE_SOAK"); d != "" {
		dur, err := time.ParseDuration(d)
		if err != nil {
			t.Fatalf("SCSERVE_SOAK=%q: %v", d, err)
		}
		seed = time.Now().UnixNano()
		deadline = time.Now().Add(dur)
		t.Logf("long soak: %v, seed %d", dur, seed)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := scserve.New(scserve.Config{
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 10 * time.Second,
		AckInterval:  64, // checkpoint densely: many checkpoints per reset budget
	})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}()

	// Every connection dies after ~20 KiB in either direction; anything
	// longer than that must survive on checkpoints alone. Fragmentation
	// and a little latency keep frame boundaries honest.
	dialer := faultnet.NewDialer(faultnet.Config{
		Seed:            seed,
		WriteChunk:      1021,
		ReadChunk:       509,
		LatencyProb:     0.002,
		Latency:         2 * time.Millisecond,
		ResetAfterBytes: 20 << 10,
	})
	remote := RemoteRun(scserve.NewRetryClient(ln.Addr().String(), scserve.RetryConfig{
		Timeout:     5 * time.Second,
		MaxAttempts: 10,
		BaseDelay:   time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Seed:        seed + 1,
		PollEvery:   4 << 10,
		Dial:        dialer.Dial,
	}))

	params := trace.Params{Procs: 2, Blocks: 2, Values: 2}
	cases := make([]chaosCase, 0, len(registry.Names()))
	for _, name := range registry.Names() {
		// Long streams (well past several reset budgets) for two
		// representative protocols; shorter ones for the rest of the
		// registry so the whole soak stays inside a few seconds.
		c := chaosCase{name: name, runs: 2, steps: 800}
		switch name {
		case "msi": // accept-heavy, long
			c = chaosCase{name: name, runs: 4, steps: 40000}
		case "mesi":
			c = chaosCase{name: name, runs: 2, steps: 15000}
		case "storebuffer": // reject-heavy, long
			c = chaosCase{name: name, runs: 5, steps: 40000}
		}
		cases = append(cases, c)
	}

	var delivered, rejected, transportErrs, runsTotal int
	round := 0
	for {
		for _, c := range cases {
			tgt, err := registry.Build(c.name, registry.Options{Params: params})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.runs; i++ {
				run := protocol.RandomRun(tgt.Protocol, c.steps, seed+int64(round*1000+i))
				localErr := CheckRun(run, tgt)
				remoteErr := remote(run, tgt)
				runsTotal++

				var ve *scserve.VerdictError
				switch {
				case remoteErr == nil:
					delivered++
					if localErr != nil {
						t.Fatalf("%s run %d: WRONG VERDICT — service accepted, local checker rejected: %v",
							c.name, i, localErr)
					}
				case errors.As(remoteErr, &ve):
					delivered++
					rejected++
					if ve.Verdict.Busy() || ve.Verdict.Code == scserve.VerdictProtocolError {
						t.Fatalf("%s run %d: non-checker verdict escaped the retry layer: %v", c.name, i, ve)
					}
					if localErr == nil {
						t.Fatalf("%s run %d: WRONG VERDICT — service rejected at symbol %d, local checker accepted",
							c.name, i, ve.Verdict.Symbol)
					}
				default:
					// Transport failure after the retry budget: allowed, the
					// fault degraded to an error rather than a wrong answer.
					transportErrs++
					t.Logf("%s run %d: transport error (tolerated): %v", c.name, i, remoteErr)
				}
			}
		}
		round++
		if deadline.IsZero() || time.Now().After(deadline) {
			break
		}
	}

	st := srv.Stats()
	t.Logf("soak: %d runs, %d verdicts delivered (%d rejections), %d transport errors; server: resumes=%d replays=%d checkpoints=%d resets=%d %s",
		runsTotal, delivered, rejected, transportErrs, st.Resumes, st.ResumeReplays, st.Checkpoints,
		dialer.Stats().Resets.Load(), dialer.Stats())

	if delivered == 0 {
		t.Fatal("no verdict survived the fault link — the soak proved nothing")
	}
	if rejected == 0 {
		t.Fatal("no rejection was delivered — the soak never exercised a non-accept verdict")
	}
	if st.Resumes == 0 {
		t.Fatal("no session ever resumed — the reset budget never forced a mid-stream reconnect")
	}
	if dialer.Stats().Resets.Load() == 0 {
		t.Fatal("fault injection never fired")
	}
}
