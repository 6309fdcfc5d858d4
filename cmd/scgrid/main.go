// Command scgrid runs the grid proxy daemon: a wire-compatible scserve
// front that shards checking sessions across a pool of scserve backends.
// Unmodified clients (sccheck -server, sctest -server, RetryClient) point
// at the proxy and get health-checked dispatch, token-pinned resumption,
// and admission control for free; the proxy relays session bytes verbatim,
// so every delivered verdict is byte-for-byte a backend checker's verdict.
//
// Usage:
//
//	scgrid -addr :7542 -backends host1:7541,host2:7541,host3:7541
//	scgrid -bench -bench-out BENCH_scgrid.json   # self-contained scaling benchmark
//
// SIGINT/SIGTERM shuts the proxy down: the listener closes, relayed
// connections are severed (retrying clients absorb this as a transport
// fault), and the final per-backend stats are printed.
//
// Exit status: 0 clean serve/bench, 1 benchmark scaling regression, 2
// usage/IO error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/faultnet"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
)

// aggregated is the /json schema of the grid stats endpoint: the pool's
// own view plus each backend's live scserve stats (fetched over the stats
// frame; fetch errors are reported per backend, not fatal).
type aggregated struct {
	Grid     scgrid.GridStats         `json:"grid"`
	Backends map[string]scserve.Stats `json:"backends,omitempty"`
	Errors   map[string]string        `json:"errors,omitempty"`
}

// collect snapshots pool stats and polls every backend for its own stats.
func collect(g *scgrid.Grid, timeout time.Duration) aggregated {
	agg := aggregated{Grid: g.Stats(), Backends: map[string]scserve.Stats{}, Errors: map[string]string{}}
	for _, bs := range agg.Grid.Backends {
		c, err := scserve.DialTimeout(bs.Addr, timeout)
		if err != nil {
			agg.Errors[bs.Addr] = err.Error()
			continue
		}
		st, err := c.Stats()
		c.Close()
		if err != nil {
			agg.Errors[bs.Addr] = err.Error()
			continue
		}
		agg.Backends[bs.Addr] = st
	}
	return agg
}

// serveStats exposes the aggregated grid view over HTTP: plain text on
// "/", JSON on "/json".
func serveStats(addr string, g *scgrid.Grid, timeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		agg := collect(g, timeout)
		fmt.Fprintf(w, "grid: %d backends, %d healthy, %d draining, %d sheds, %d drain redirects\n",
			len(agg.Grid.Backends), agg.Grid.Healthy, agg.Grid.Draining, agg.Grid.Sheds, agg.Grid.DrainRedirects)
		for _, bs := range agg.Grid.Backends {
			fmt.Fprintf(w, "%s\n", bs)
			if st, ok := agg.Backends[bs.Addr]; ok {
				fmt.Fprintf(w, "  backend: %s\n", st)
			} else if msg, ok := agg.Errors[bs.Addr]; ok {
				fmt.Fprintf(w, "  backend: stats unavailable: %s\n", msg)
			}
		}
	})
	mux.HandleFunc("/json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(collect(g, timeout))
	})
	go http.Serve(ln, mux)
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7542", "proxy listen address")
		backends = flag.String("backends", "", "comma-separated scserve backend addresses (required for serving)")

		maxInFlight   = flag.Int("max-inflight", 32, "concurrent sessions per backend before queueing")
		queueDepth    = flag.Int("queue-depth", 64, "sessions allowed to wait for a slot before shedding")
		queueWait     = flag.Duration("queue-wait", 2*time.Second, "how long a queued session waits before shedding busy")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "health probe cadence for live backends")
		readmitDelay  = flag.Duration("readmit-delay", 3*time.Second, "base delay before re-probing an ejected backend")
		timeout       = flag.Duration("timeout", 10*time.Second, "per-operation backend I/O deadline")
		verbose       = flag.Bool("v", false, "log ejections, re-admissions, and failovers")
		structured    = flag.Bool("log", false, "emit structured (slog) dispatch events on stderr")
		statsAddr     = flag.String("stats-addr", "", "serve aggregated grid+backend stats over HTTP on this address")

		bench         = flag.Bool("bench", false, "run the self-contained scaling benchmark instead of serving")
		benchSessions = flag.Int("bench-sessions", 384, "benchmark: total sessions per backend-count row")
		benchWorkers  = flag.Int("bench-workers", 32, "benchmark: concurrent client workers")
		benchSymbols  = flag.Int("bench-symbols", 64, "benchmark: symbols per session")
		benchLatency  = flag.Duration("bench-latency", 4*time.Millisecond, "benchmark: simulated per-operation link latency ceiling")
		benchInFlight = flag.Int("bench-inflight", 8, "benchmark: per-backend in-flight cap")
		benchOut      = flag.String("bench-out", "BENCH_scgrid.json", "benchmark: JSON output file")
	)
	flag.Parse()

	if *bench {
		os.Exit(runBench(*benchSessions, *benchWorkers, *benchSymbols, *benchInFlight, *benchLatency, *benchOut))
	}

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "scgrid: -backends is required (comma-separated scserve addresses)")
		os.Exit(2)
	}
	cfg := scgrid.Config{
		MaxInFlight:   *maxInFlight,
		QueueDepth:    *queueDepth,
		QueueWait:     *queueWait,
		ProbeInterval: *probeInterval,
		ReadmitDelay:  *readmitDelay,
		RetryConfig:   scserve.RetryConfig{Timeout: *timeout},
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	if *structured {
		cfg.Log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	g, err := scgrid.New(strings.Split(*backends, ","), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgrid: %v\n", err)
		os.Exit(2)
	}
	defer g.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgrid: listen: %v\n", err)
		os.Exit(2)
	}
	p := scgrid.NewProxy(g)
	g.ProbeNow()
	st := g.Stats()
	fmt.Printf("scgrid: proxy on %s over %d backends (%d healthy, %d in-flight/backend)\n",
		ln.Addr(), len(st.Backends), st.Healthy, *maxInFlight)
	if *statsAddr != "" {
		if err := serveStats(*statsAddr, g, *timeout); err != nil {
			fmt.Fprintf(os.Stderr, "scgrid: stats listen: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("scgrid: stats on http://%s/\n", *statsAddr)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("scgrid: %v: shutting down\n", s)
		p.Shutdown()
	}()

	if err := p.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "scgrid: serve: %v\n", err)
		os.Exit(2)
	}
	for _, bs := range g.Stats().Backends {
		fmt.Printf("scgrid: %s\n", bs)
	}
}

// benchRow is one backend-count measurement in BENCH_scgrid.json.
type benchRow struct {
	Backends       int     `json:"backends"`
	Sessions       int     `json:"sessions"`
	Accepts        int     `json:"accepts"`
	Rejects        int     `json:"rejects"`
	Sheds          int64   `json:"sheds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	SpeedupVs1     float64 `json:"speedup_vs_1"`
}

// benchResult is the BENCH_scgrid.json schema.
type benchResult struct {
	Bench             string     `json:"bench"`
	Note              string     `json:"note"`
	Workers           int        `json:"workers"`
	SymbolsPerSession int        `json:"symbols_per_session"`
	MaxInFlight       int        `json:"max_in_flight_per_backend"`
	LinkLatency       string     `json:"simulated_link_latency"`
	Rows              []benchRow `json:"rows"`
	Speedup4x         float64    `json:"speedup_4_backends_vs_1"`
}

// runBench measures aggregate grid throughput at 1, 2, and 4 in-process
// backends. Checking is I/O-bound in the deployment this models — each
// observer session crosses a network — so the benchmark makes the link,
// not the CPU, the bottleneck: every connection operation pays a seeded
// faultnet latency in [0, benchLatency], and each backend admits at most
// benchInFlight concurrent sessions (the client-side mirror of a real
// backend's capacity). Under that regime aggregate sessions/s is set by
// total slots × per-session latency, which is exactly what adding
// backends buys; the measured speedup is the fabric's dispatch working,
// not loopback CPU parallelism (which a single-core host cannot offer).
func runBench(sessions, workers, symbols, inflight int, latency time.Duration, out string) int {
	accWire := descriptor.Marshal(scserve.SyntheticAccept(symbols))
	rejStream, rejIdx := scserve.SyntheticReject(symbols - 4)
	rejWire := descriptor.Marshal(rejStream)

	res := benchResult{
		Bench:             "scgrid",
		Note:              "latency-bound loopback scaling: per-op simulated link latency + per-backend in-flight caps; speedup reflects dispatch across backends, not CPU parallelism",
		Workers:           workers,
		SymbolsPerSession: symbols,
		MaxInFlight:       inflight,
		LinkLatency:       latency.String(),
	}

	for _, nb := range []int{1, 2, 4} {
		// Fresh backends per row so counters and checkpoint stores start cold.
		var srvs []*scserve.Server
		var lns []net.Listener
		var addrs []string
		for i := 0; i < nb; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintf(os.Stderr, "scgrid bench: listen: %v\n", err)
				return 2
			}
			srv := scserve.New(scserve.Config{MaxSessions: inflight + 8, AckInterval: 1024})
			go srv.Serve(ln)
			srvs = append(srvs, srv)
			lns = append(lns, ln)
			addrs = append(addrs, ln.Addr().String())
		}

		fd := faultnet.NewDialer(faultnet.Config{
			Seed:        int64(100 + nb),
			LatencyProb: 1,
			Latency:     latency,
		})
		g, err := scgrid.New(addrs, scgrid.Config{
			MaxInFlight:   inflight,
			QueueDepth:    workers + 8,
			QueueWait:     time.Minute, // the bench queues, never sheds
			ProbeInterval: -1,
			RetryConfig:   scserve.RetryConfig{Seed: int64(nb), Dial: fd.Dial},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgrid bench: %v\n", err)
			return 2
		}

		var mu sync.Mutex
		accepts, rejects, failures := 0, 0, 0
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			share := sessions / workers
			if w < sessions%workers {
				share++
			}
			wg.Add(1)
			go func(w, share int) {
				defer wg.Done()
				localA, localR, localF := 0, 0, 0
				for i := 0; i < share; i++ {
					reject := (w+i)%8 == 7
					wire := accWire
					if reject {
						wire = rejWire
					}
					s, err := g.Session(scserve.SyntheticHeader())
					if err == nil {
						err = s.SendBytes(wire)
					}
					var v scserve.Verdict
					if err == nil {
						v, err = s.Finish()
					}
					switch {
					case err != nil,
						reject && (v.Code != scserve.VerdictReject || v.Symbol != rejIdx),
						!reject && v.Code != scserve.VerdictAccept:
						localF++
					case reject:
						localR++
					default:
						localA++
					}
				}
				mu.Lock()
				accepts += localA
				rejects += localR
				failures += localF
				mu.Unlock()
			}(w, share)
		}
		wg.Wait()
		elapsed := time.Since(start)
		st := g.Stats()
		g.Close()
		for i, srv := range srvs {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			srv.Shutdown(ctx)
			cancel()
			lns[i].Close()
		}

		if failures > 0 {
			fmt.Fprintf(os.Stderr, "scgrid bench: %d sessions failed or returned wrong verdicts at %d backends\n", failures, nb)
			return 2
		}
		row := benchRow{
			Backends:       nb,
			Sessions:       sessions,
			Accepts:        accepts,
			Rejects:        rejects,
			Sheds:          st.Sheds,
			ElapsedSeconds: elapsed.Seconds(),
			SessionsPerSec: float64(sessions) / elapsed.Seconds(),
		}
		if len(res.Rows) > 0 {
			row.SpeedupVs1 = row.SessionsPerSec / res.Rows[0].SessionsPerSec
		} else {
			row.SpeedupVs1 = 1
		}
		res.Rows = append(res.Rows, row)
		fmt.Printf("scgrid bench: %d backend(s): %d sessions in %.2fs — %.0f sessions/s (%.2fx)\n",
			nb, sessions, row.ElapsedSeconds, row.SessionsPerSec, row.SpeedupVs1)
	}

	res.Speedup4x = res.Rows[len(res.Rows)-1].SpeedupVs1
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgrid bench: %v\n", err)
		return 2
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "scgrid bench: write %s: %v\n", out, err)
		return 2
	}
	fmt.Printf("scgrid bench: 4-backend speedup %.2fx (%s)\n", res.Speedup4x, out)
	if res.Speedup4x < 2 {
		fmt.Fprintln(os.Stderr, "scgrid bench: scaling regression: 4 backends deliver < 2x the 1-backend throughput")
		return 1
	}
	return 0
}
