// Command sctest runs the per-run testing scenario of Section 5 of Condon
// & Hu: random executions of a protocol are observed and checked on the
// fly, optionally cross-checking each trace against the exact (worst-case
// exponential) serial-reordering search of Gibbons & Korach. It is the
// lightweight alternative to full model checking for implementations too
// large to verify exhaustively.
//
// Usage:
//
//	sctest -protocol storebuffer -p 2 -b 2 -v 1 -runs 1000 -steps 16
//
// With -server, runs are adjudicated by a remote scserve service instead
// of the in-process checker — the fully online form of the Section 5
// deployment (observers local, adjudication central):
//
//	scserve -addr :7541 &
//	sctest -protocol msi -server 127.0.0.1:7541 -runs 1000
//
// With -grid, the campaign is sharded across a pool of scserve backends
// through the scgrid dispatcher — each run becomes a tokened grid session
// placed on a healthy backend, and the per-backend counters printed after
// the campaign show the sharding:
//
//	sctest -protocol msi -grid h1:7541,h2:7541,h3:7541 -workers 8 -runs 1000
//
// With -hist, the campaign tests the history-ingestion pipeline instead
// of a protocol: for each of -runs seeds, one anomaly-free replicated-KV
// history plus one history per injectable anomaly kind is generated,
// lowered, and adjudicated (locally, or via -server/-grid like protocol
// campaigns). Anomaly-free histories must be accepted; every injected
// anomaly must be rejected with its expected constraint code. -p and -b
// set the history's process and key counts, -hist-ops its length:
//
//	sctest -hist -runs 50 -p 4 -b 3 -workers 8
//	sctest -hist -runs 50 -grid h1:7541,h2:7541
package main

import (
	"flag"
	"fmt"
	"os"

	"scverify/internal/history"
	"scverify/internal/registry"
	"scverify/internal/sctest"
	"scverify/internal/trace"
	"scverify/internal/witness"
)

func main() {
	var (
		name    = flag.String("protocol", "msi", "protocol to test")
		procs   = flag.Int("p", 2, "number of processors")
		blocks  = flag.Int("b", 2, "number of memory blocks")
		values  = flag.Int("v", 2, "number of data values")
		qcap    = flag.Int("qcap", 1, "queue capacity (store buffer / lazy caching)")
		runs    = flag.Int("runs", 500, "number of random runs")
		steps   = flag.Int("steps", 24, "maximum steps per run")
		seed    = flag.Int64("seed", 1, "base random seed")
		exact   = flag.Bool("exact", true, "cross-check short traces with the exact reordering search")
		limit   = flag.Int("exactlimit", 14, "maximum trace length for the exact cross-check")
		workers = flag.Int("workers", 1, "parallel campaign workers")
		remote  = sctest.AddRemoteFlags(flag.CommandLine)
		hist    = flag.Bool("hist", false, "campaign over generated operation histories instead of protocol runs")
		histOps = flag.Int("hist-ops", 60, "base operations per generated history (-hist mode)")
		tier    = flag.Bool("tier", false, "adjudicate every rejection against the weaker-model ladder and histogram the tiers")
	)
	flag.Parse()

	adj, err := remote.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sctest: %v\n", err)
		os.Exit(2)
	}
	defer remote.Close()
	var opts []sctest.CheckOpt
	if *tier {
		opts = append(opts, sctest.Tiered())
	}
	if *hist {
		cfg := sctest.HistoryConfig{
			Seeds: *runs, Seed: *seed, Workers: *workers,
			Gen:  history.GenConfig{Processes: *procs, Keys: *blocks, Ops: *histOps},
			Tier: *tier,
		}
		if adj != nil {
			cfg.Check = sctest.RemoteHistory(adj, opts...)
		}
		os.Exit(histMain(cfg, remote))
	}

	params := trace.Params{Procs: *procs, Blocks: *blocks, Values: *values}
	tgt, err := registry.Build(*name, registry.Options{Params: params, QueueCap: *qcap})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := sctest.Config{
		Runs: *runs, Steps: *steps, Seed: *seed,
		Exact: *exact, ExactLimit: *limit, Workers: *workers,
		Tier: *tier,
	}
	if adj != nil {
		cfg.Check = sctest.RemoteRun(adj, opts...)
	}
	fmt.Printf("testing %s (%s) at %s: %d runs × %d steps, adjudicated by %s\n",
		tgt.Protocol.Name(), tgt.Note, params, *runs, *steps, remote)
	res := sctest.Campaign(tgt, cfg)
	fmt.Println(res)
	printBackends(remote)

	if res.SoundnessBreaks > 0 {
		fmt.Println("FATAL: a run was accepted whose trace is not SC — method soundness bug")
		os.Exit(1)
	}
	if res.WrongTiers > 0 {
		fmt.Println("FATAL: service and local tier adjudication disagreed on a rejection")
		os.Exit(1)
	}
	if res.FirstRejected != nil {
		fmt.Printf("first rejected run:\n  %s\n", res.FirstRejected)
		if *tier {
			if lt, ok := sctest.LocalTier(res.FirstRejected, tgt); ok && lt.Checked {
				fmt.Printf("  %s\n", lt)
			}
		}
		// Replay through the witness pipeline: minimized rejecting core,
		// concrete happens-before cycle, exact-search certification.
		if w, werr := witness.FromRun(res.FirstRejected, tgt, witness.Explain()); werr == nil && w != nil {
			fmt.Print(w.Render())
		} else {
			fmt.Printf("  trace: %s\n  cause: %v\n", res.FirstRejected.Trace, res.FirstCause)
		}
		os.Exit(1)
	}
}

// printBackends shows how a -grid campaign sharded: per-backend session
// counters.
func printBackends(remote *sctest.RemoteFlags) {
	for _, bs := range remote.Backends() {
		fmt.Printf("  %s\n", bs)
	}
}

// histMain runs the -hist campaign: seeds × (1 clean + one history per
// anomaly kind), adjudicated locally or through the chosen service, with
// the first unexpected outcome rendered as an annotated witness.
func histMain(cfg sctest.HistoryConfig, remote *sctest.RemoteFlags) int {
	kinds := history.AllAnomalies()
	g := cfg.Gen
	fmt.Printf("testing history ingestion: %d seeds × (1 clean + %d anomalies), %d processes × %d keys × %d ops, adjudicated by %s\n",
		cfg.Seeds, len(kinds), g.Processes, g.Keys, g.Ops, remote)
	res := sctest.HistoryCampaign(cfg)
	fmt.Println(res)
	printBackends(remote)
	if res.Passed() {
		return 0
	}
	if f := res.FirstUnexpected; f != nil {
		fmt.Printf("first unexpected outcome:\n  %s\n", f)
		if f.Lowering != nil {
			if w := f.Lowering.Explain(); w != nil {
				fmt.Print(w.Render())
			}
		}
	}
	return 1
}
