// Command sccheck runs the protocol-independent SC checker over a k-graph
// descriptor stream in the repository's binary wire format, read from a
// file or stdin. It decouples checking from observation: an observer
// embedded in a real system (or another tool entirely) can log its
// descriptor stream and have it adjudicated offline — the testing
// deployment sketched in Section 5 of Condon & Hu. The stream is decoded
// incrementally (symbol by symbol), so memory stays bounded on
// arbitrarily long inputs, and decode failures report the byte offset and
// symbol index of the malformed symbol.
//
// Usage:
//
//	scexperiments ... | sccheck -k 12            # stream on stdin
//	sccheck -k 12 -in run.desc                   # stream from a file
//	sccheck -k 12 -in run.desc -text             # also print each symbol
//	sccheck -k 12 -in run.desc -explain          # minimized witness on rejection
//	sccheck -k 12 -in run.desc -server host:7541 # adjudicate via scserve
//	sccheck -k 12 -in run.desc -grid h1:7541,h2:7541 # adjudicate via a backend pool
//
// With -server, the stream is adjudicated by a remote scserve service;
// with -grid, it is dispatched through the scgrid fabric over a
// comma-separated pool of scserve backends. Both run the session on the
// fault-tolerant session engine: a connection blip resumes from the
// server's last checkpoint and replays only the unacked tail, a backend
// death fails over to a live backend (replaying the stream), and a
// saturated pool answers busy. -server-timeout bounds each network
// operation and -server-retries the connection attempts per operation.
//
// With -explain, a rejection is explained rather than merely located: the
// stream is shrunk to a 1-minimal rejecting core (delta debugging), the
// offending happens-before cycle is printed as concrete memory operations,
// and the witness trace is cross-checked against the exact Gibbons–Korach
// serial-reordering search. The whole stream is buffered in memory, so
// -explain trades sccheck's default bounded-memory streaming for
// explanatory power.
//
// The history subcommand adjudicates black-box operation histories
// (Jepsen-style invoke/ok/fail/info records in JSONL or an EDN subset)
// by lowering them onto descriptor streams — see historyMain:
//
//	sccheck history -in run.jsonl                # local check
//	sccheck history -in run.edn -explain         # witness in history vocabulary
//	sccheck history -in run.jsonl -grid h1:7541,h2:7541
//
// The lint subcommand instead runs the Γ-membership linter (package
// gammalint) over registered protocols:
//
//	sccheck lint msi lazy                        # lint named protocols
//	sccheck lint -all                            # lint every registered one
//	sccheck lint -all -p 2 -b 2 -v 2 -states 20000
//	sccheck lint -all -json                      # machine-readable reports
//	sccheck lint -all -overk                     # also warn on over-declared k (GL012)
//
// Exit status: 0 accepted/clean, 1 rejected/findings, 2 usage, IO, or
// transport error (including busy — anything that is not a checker
// verdict). Exit 1 always means the checker itself rejected; exit 2
// means the check did not happen.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/gammalint"
	"scverify/internal/registry"
	"scverify/internal/scserve"
	"scverify/internal/sctest"
	"scverify/internal/trace"
	"scverify/internal/witness"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		os.Exit(lintMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "history" {
		os.Exit(historyMain(os.Args[2:]))
	}
	var (
		k       = flag.Int("k", 0, "bandwidth bound (required; IDs range over 1..k+1)")
		in      = flag.String("in", "", "input file (default stdin)")
		text    = flag.Bool("text", false, "print the decoded stream in the paper's notation")
		explain = flag.Bool("explain", false, "on rejection, print a minimized structured witness (buffers the whole stream)")
		procs   = flag.Int("p", 0, "optional: processors, enables parameter checking")
		blocks  = flag.Int("b", 0, "optional: blocks")
		values  = flag.Int("v", 0, "optional: values")
		remote  = sctest.AddRemoteFlags(flag.CommandLine)
		tier    = flag.Bool("tier", false, "on rejection, adjudicate the witness core against the weaker-model ladder (TSO/PSO/causal/PRAM); with -server/-grid, ask the service to")
	)
	flag.Parse()

	if *k < 1 {
		fmt.Fprintln(os.Stderr, "sccheck: -k must be at least 1")
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccheck: open: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}

	params := trace.Params{}
	if *procs > 0 {
		params = trace.Params{Procs: *procs, Blocks: *blocks, Values: *values}
	}

	if remote.Remote() {
		if *text || *explain {
			fmt.Fprintln(os.Stderr, "sccheck: -text and -explain are local-only; not available with -server/-grid")
			os.Exit(2)
		}
		a, err := remote.Open()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccheck: %v\n", err)
			os.Exit(2)
		}
		code := remoteMain(r, a, scserve.Header{K: *k, Params: params, Tiered: *tier})
		remote.Close()
		os.Exit(code)
	}
	c := checker.New(*k)
	if params.Procs > 0 {
		c.SetParams(params)
	}

	// Decode incrementally: memory stays bounded however long the stream
	// is, and the checker rejects as early as the stream allows. With
	// -explain the symbols are buffered instead and explained after EOF.
	dec := descriptor.NewDecoder(bufio.NewReaderSize(r, 64<<10))
	var stream descriptor.Stream
	ops := 0
	for {
		off := dec.Offset()
		sym, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var de *descriptor.DecodeError
			if errors.As(err, &de) {
				fmt.Fprintf(os.Stderr, "sccheck: decode: symbol %d at byte %d: %s\n", de.Symbol+1, de.Offset, de.Msg)
			} else {
				fmt.Fprintf(os.Stderr, "sccheck: read: %v\n", err)
			}
			os.Exit(2)
		}
		if *text {
			fmt.Println(sym.Text())
		}
		if n, ok := sym.(descriptor.Node); ok && n.Op != nil {
			ops++
		}
		if *explain || *tier {
			stream = append(stream, sym)
			continue
		}
		if err := c.Step(sym); err != nil {
			fmt.Printf("REJECTED at symbol %d, byte %d (%s): %v\n", dec.Count(), off, sym.Text(), err)
			os.Exit(1)
		}
	}
	if *explain || *tier {
		// -tier uses the canonical TierWitness core — the stream truncated
		// at the rejecting symbol, minimized preserving non-SC-ness — so
		// the tier printed here equals what a tiered scserve backend would
		// put on the verdict for the same stream.
		var w *witness.Witness
		if *tier {
			w = witness.TierWitness(stream, *k, params)
		} else {
			w = witness.FromStream(stream, *k, witness.Options{Minimize: true, Params: params})
		}
		if w != nil {
			if *tier {
				w.Adjudicate(0)
			}
			fmt.Printf("REJECTED (%s)\n", w.Summary())
			if *explain {
				fmt.Print(w.Render())
			} else if w.Spectrum != nil {
				fmt.Print(w.Spectrum.Narrative(w.Trace))
			}
			os.Exit(1)
		}
	} else if err := c.Finish(); err != nil {
		fmt.Printf("REJECTED at end of stream: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("accepted: %d symbols describe an acyclic constraint graph for trace of %d operations\n",
		dec.Count(), ops)
}

// remoteMain streams the raw descriptor wire bytes through the remote
// adjudicator — one scserve service or an scgrid pool — and reports its
// verdict. The stream is shipped as-is (the server decodes and positions
// errors) on a tokened session: a connection blip resumes from the
// server's last checkpoint, a backend death fails over with a full
// replay, and a saturated pool answers busy (exit 2) rather than hanging.
func remoteMain(r io.Reader, a sctest.Adjudicator, h scserve.Header) int {
	h.Token = scserve.NewToken()
	sess, err := a.Session(h)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccheck: remote: %v\n", err)
		return 2
	}
	defer sess.Close()
	buf := make([]byte, 32<<10)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if err := sess.SendBytes(buf[:n]); err != nil {
				fmt.Fprintf(os.Stderr, "sccheck: remote: %v\n", err)
				return 2
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "sccheck: read: %v\n", rerr)
			return 2
		}
	}
	v, err := sess.Finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccheck: remote: %v\n", err)
		return 2
	}
	return reportVerdict(v)
}

// reportVerdict maps a service verdict onto sccheck's exit-code contract:
// 0 accepted, 1 rejected, 2 anything that is not a checker verdict (busy,
// protocol error) — so scripts can trust that exit 1 means an SC
// violation and exit 2 means the check itself did not happen.
func reportVerdict(v scserve.Verdict) int {
	switch v.Code {
	case scserve.VerdictAccept:
		fmt.Printf("accepted: %s\n", v.Msg)
		return 0
	case scserve.VerdictReject:
		fmt.Printf("REJECTED %s\n", v)
		return 1
	default:
		fmt.Fprintf(os.Stderr, "sccheck: remote: %s\n", v)
		return 2
	}
}

// lintMain implements `sccheck lint`: Γ-lint over registered protocols.
func lintMain(args []string) int {
	fs := flag.NewFlagSet("sccheck lint", flag.ExitOnError)
	var (
		all      = fs.Bool("all", false, "lint every registered protocol")
		procs    = fs.Int("p", 2, "processors")
		blocks   = fs.Int("b", 2, "blocks")
		values   = fs.Int("v", 2, "values")
		queueCap = fs.Int("q", 1, "queue capacity for buffered protocols")
		states   = fs.Int("states", 20000, "max (state, shadow) pairs explored per protocol")
		runs     = fs.Int("runs", 10, "bandwidth-pass runs per protocol (negative disables)")
		steps    = fs.Int("steps", 60, "length of each bandwidth run")
		seed     = fs.Int64("seed", 1, "seed offset for the bandwidth pass")
		jsonOut  = fs.Bool("json", false, "emit reports as a JSON array")
		overK    = fs.Bool("overk", false, "warn when the declared k is never approached (GL012)")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sccheck lint [-all] [flags] [protocol...]\nknown protocols: %v\n", registry.Names())
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	names := fs.Args()
	if *all {
		names = registry.Names()
	}
	if len(names) == 0 {
		fs.Usage()
		return 2
	}

	opts := registry.Options{
		Params:   trace.Params{Procs: *procs, Blocks: *blocks, Values: *values},
		QueueCap: *queueCap,
	}
	dirty := false
	var reports []*gammalint.Report
	for _, name := range names {
		t, err := registry.Build(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccheck lint: %v\n", err)
			return 2
		}
		rep := gammalint.Lint(t.Protocol, gammalint.Options{
			MaxStates:      *states,
			PoolSize:       t.PoolSize,
			Generator:      t.Generator,
			BandwidthRuns:  *runs,
			BandwidthSteps: *steps,
			Seed:           *seed,
			CheckOverK:     *overK,
		})
		reports = append(reports, rep)
		if len(rep.Findings) > 0 {
			dirty = true
		}
		if *jsonOut {
			continue
		}
		fmt.Println(rep)
		for _, f := range rep.Findings {
			fmt.Printf("  %s\n", f)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "sccheck lint: %v\n", err)
			return 2
		}
	}
	if dirty {
		return 1
	}
	return 0
}
