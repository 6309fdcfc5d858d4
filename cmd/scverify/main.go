// Command scverify exhaustively verifies that a protocol is sequentially
// consistent using the observer/checker method of Condon & Hu: it explores
// the full product of the protocol, its automatically generated witness
// observer, and the protocol-independent SC checker. A "verified" verdict
// means every run's constraint graph is acyclic (the protocol is SC for
// the given parameters); a "violated" verdict comes with a concrete
// counterexample run.
//
// With -grid, the exploration is distributed: each comma-separated scserve
// backend owns one rendezvous-hashed shard of the visited set, and the
// aggregate state capacity is shards × -states. The verdicts and state
// counts are identical to a single-node run; a backend lost mid-run
// degrades the verdict to incomplete, never to a wrong verified.
//
// Usage:
//
//	scverify -protocol msi -p 2 -b 1 -v 1
//	scverify -protocol storebuffer -p 2 -b 2 -v 1 -depth 8
//	scverify -protocol msi -grid host1:7541,host2:7541,host3:7541
//	scverify -list
//
// Exit status: 0 verified, 1 violated, 2 usage error, 3 incomplete.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"scverify/internal/mc"
	"scverify/internal/registry"
	"scverify/internal/scmc"
	"scverify/internal/trace"
	"scverify/internal/witness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: parse flags, verify
// locally or across a grid, map the verdict to the exit-code contract.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("protocol", "msi", "protocol to verify (see -list)")
		procs    = fs.Int("p", 2, "number of processors")
		blocks   = fs.Int("b", 1, "number of memory blocks")
		values   = fs.Int("v", 1, "number of data values")
		qcap     = fs.Int("qcap", 1, "queue capacity (store buffer / lazy caching)")
		depth    = fs.Int("depth", 0, "exploration depth bound (0 = unbounded)")
		states   = fs.Int("states", 0, "state cap — per shard under -grid (0 = default)")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		exact    = fs.Bool("exact", false, "store exact state keys instead of 64-bit fingerprints")
		audit    = fs.Bool("audit", false, "fingerprint visited set, but keep keys and count collisions")
		progress = fs.Bool("progress", false, "print exploration progress")
		grid     = fs.String("grid", "", "comma-separated scserve backends for distributed exploration")
		stall    = fs.Duration("stall", 2*time.Minute, "grid: abort when no backend activity for this long")
		list     = fs.Bool("list", false, "list protocols and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, n := range registry.Names() {
			note, _ := registry.Describe(n)
			fmt.Fprintf(stdout, "  %-20s %s\n", n, note)
		}
		return 0
	}

	params := trace.Params{Procs: *procs, Blocks: *blocks, Values: *values}
	tgt, err := registry.Build(*name, registry.Options{Params: params, QueueCap: *qcap})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *grid != "" {
		addrs := splitAddrs(*grid)
		if len(addrs) == 0 {
			fmt.Fprintln(stderr, "scverify: -grid needs at least one backend address")
			return 2
		}
		return gridVerify(tgt, *name, params, addrs, scmc.Options{
			Protocol:          *name,
			Params:            params,
			QueueCap:          *qcap,
			MaxStatesPerShard: *states,
			MaxDepth:          *depth,
			Exact:             *exact,
			Audit:             *audit,
			StallTimeout:      *stall,
		}, *progress, stdout, stderr)
	}

	opts := mc.Options{
		Workers:         *workers,
		MaxStates:       *states,
		MaxDepth:        *depth,
		PoolSize:        tgt.PoolSize,
		Generator:       tgt.Generator,
		ExactKeys:       *exact,
		AuditCollisions: *audit,
	}
	if *progress {
		opts.Progress = func(d, s, f int) {
			fmt.Fprintf(stderr, "depth %d: %d states, frontier %d\n", d, s, f)
		}
	}

	fmt.Fprintf(stdout, "verifying %s (%s) at %s...\n", tgt.Protocol.Name(), tgt.Note, params)
	res := mc.Verify(tgt.Protocol, opts)
	fmt.Fprintln(stdout, res)

	switch res.Verdict {
	case mc.Violated:
		reportViolation(tgt, res.Counterexample, res.Err, stdout, stderr)
		return 1
	case mc.Incomplete:
		fmt.Fprintf(stdout, "exploration incomplete after %s; raise -depth/-states to finish\n",
			res.Elapsed.Round(time.Millisecond))
		return 3
	}
	return 0
}

// gridVerify runs the distributed exploration and maps its result onto
// the same exit-code contract as the local path.
func gridVerify(tgt registry.Target, name string, params trace.Params, addrs []string, opts scmc.Options, progress bool, stdout, stderr io.Writer) int {
	if progress {
		opts.Progress = func(shards []scmc.ShardStats) {
			var line strings.Builder
			var total int64
			for i, sh := range shards {
				if i > 0 {
					line.WriteString("  ")
				}
				fmt.Fprintf(&line, "shard %d: %d states (in %d / out %d)", i, sh.States, sh.ItemsIn, sh.ItemsOut)
				total += sh.States
			}
			fmt.Fprintf(stderr, "%d states | %s\n", total, line.String())
		}
	}
	fmt.Fprintf(stdout, "verifying %s (%s) at %s across %d backends...\n", tgt.Protocol.Name(), tgt.Note, params, len(addrs))
	res := scmc.Verify(context.Background(), addrs, opts)
	fmt.Fprintln(stdout, res)
	for i, sh := range res.Shards {
		fmt.Fprintf(stdout, "  shard %d (%s): %d states, %d transitions, %d in / %d out\n",
			i, sh.Addr, sh.States, sh.Transitions, sh.ItemsIn, sh.ItemsOut)
	}

	switch res.Verdict {
	case mc.Violated:
		reportViolation(tgt, res.Counterexample, res.Err, stdout, stderr)
		return 1
	case mc.Incomplete:
		if res.Err != nil {
			fmt.Fprintf(stderr, "scverify: %v\n", res.Err)
		}
		fmt.Fprintf(stdout, "exploration incomplete after %s\n", res.Elapsed.Round(time.Millisecond))
		return 3
	}
	return 0
}

// reportViolation replays a counterexample path on the local protocol and
// renders the witness explanation. The grid never ships states back — a
// violation travels as a transition-index path, replayed here.
func reportViolation(tgt registry.Target, path []int, cause error, stdout, stderr io.Writer) {
	run, err := mc.Replay(tgt.Protocol, path)
	if err != nil {
		fmt.Fprintf(stderr, "counterexample replay failed: %v\n", err)
		return
	}
	fmt.Fprintf(stdout, "counterexample (%d steps):\n  %s\n", len(run.Steps), run)
	fmt.Fprintf(stdout, "trace: %s\n", run.Trace)
	// The counterexample was found with witness mode off (mc clones the
	// checker at every branch); replay it through the witness pipeline
	// for a minimized, human-readable explanation.
	if w, werr := witness.FromRun(run, tgt, witness.Explain()); werr == nil && w != nil {
		fmt.Fprint(stdout, w.Render())
	} else {
		fmt.Fprintf(stdout, "cause: %v\n", cause)
	}
}

// splitAddrs splits a comma-separated backend list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
