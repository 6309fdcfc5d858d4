package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"scverify/internal/history"
	"scverify/internal/scserve"
	"scverify/internal/sctest"
	"scverify/internal/witness"
)

// historyMain implements `sccheck history`: adjudicate a black-box
// operation history (JSONL or the Jepsen-style EDN subset) by lowering it
// onto a descriptor stream and checking it locally, via scserve, or
// through an scgrid pool.
//
//	sccheck history -in run.jsonl                  # local check
//	sccheck history -in run.edn -explain           # witness in history vocabulary
//	cat run.jsonl | sccheck history                # stdin (JSONL unless it sniffs as EDN)
//	sccheck history -in run.jsonl -server h:7541   # adjudicate via scserve
//	sccheck history -in run.jsonl -grid h1:7541,h2:7541
//	sccheck history -bench -bench-out=BENCH_schist.json
//
// The exit-code contract matches the main command: 0 the history is
// accepted as sequentially consistent, 1 the checker rejected it, 2 the
// check did not happen (malformed input, ill-formed history, usage, or
// transport failure).
func historyMain(args []string) int {
	fs := flag.NewFlagSet("sccheck history", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "input file (default stdin)")
		format  = fs.String("format", "auto", "input format: auto|jsonl|edn")
		strict  = fs.Bool("strict", false, "reject histories with operations still pending at end of input")
		explain = fs.Bool("explain", false, "on rejection, print a minimized witness in history vocabulary")
		quiet   = fs.Bool("q", false, "suppress the acceptance summary line")
		remote  = sctest.AddRemoteFlags(fs)
		tier    = fs.Bool("tier", false, "on rejection, adjudicate the witness core against the weaker-model ladder; with -server/-grid, ask the service to")

		bench      = fs.Bool("bench", false, "run the ingestion+checking throughput benchmark instead of checking input")
		benchHists = fs.Int("bench-histories", 2000, "histories per benchmark arm")
		benchOps   = fs.Int("bench-ops", 200, "base operations per benchmark history")
		benchOut   = fs.String("bench-out", "", "write the benchmark result as JSON to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sccheck history [-in file] [-format auto|jsonl|edn] [-strict] [-explain] [-server addr | -grid addrs] [-bench]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	if *bench {
		return historyBench(*benchHists, *benchOps, *benchOut)
	}
	if *explain && remote.Remote() {
		fmt.Fprintln(os.Stderr, "sccheck history: -explain is local-only; not available with -server/-grid")
		return 2
	}
	a, err := remote.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccheck history: %v\n", err)
		return 2
	}
	defer remote.Close()

	h, err := readHistory(*in, *format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccheck history: %v\n", err)
		return 2
	}
	if *strict {
		if _, err := h.Ops(true); err != nil {
			fmt.Fprintf(os.Stderr, "sccheck history: %v\n", err)
			return 2
		}
	}
	l, err := history.Lower(h)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccheck history: %v\n", err)
		return 2
	}

	if a != nil {
		var opts []sctest.CheckOpt
		if *tier {
			opts = append(opts, sctest.Tiered())
		}
		return historyRemote(l, a, opts...)
	}

	if err := l.Check(); err != nil {
		if *explain || *tier {
			var w *witness.Witness
			if *tier {
				w = l.ExplainTier()
			} else {
				w = l.Explain()
			}
			if w != nil {
				fmt.Printf("REJECTED (%s)\n", w.Summary())
				if *explain {
					fmt.Print(w.Render())
				} else if w.Spectrum != nil {
					fmt.Print(w.Spectrum.Narrative(w.Trace))
				}
				return 1
			}
		}
		fmt.Printf("REJECTED: %v\n", err)
		return 1
	}
	if !*quiet {
		fmt.Printf("accepted: %s\n", l.Summary())
	}
	return 0
}

// readHistory loads and parses the input, sniffing the format when asked
// to: the file extension decides first (.edn vs anything else), then the
// first significant bytes — EDN histories open with '[', ';' or '{:',
// JSONL lines with '{"'.
func readHistory(path, format string) (*history.History, error) {
	var data []byte
	var err error
	if path == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	f := format
	if f == "auto" {
		f = sniffFormat(path, data)
	}
	switch f {
	case "jsonl":
		return history.ParseJSONL(bytes.NewReader(data))
	case "edn":
		return history.ParseEDN(bytes.NewReader(data))
	default:
		return nil, fmt.Errorf("unknown format %q (want auto, jsonl, or edn)", format)
	}
}

func sniffFormat(path string, data []byte) string {
	switch filepath.Ext(path) {
	case ".edn":
		return "edn"
	case ".jsonl", ".json":
		return "jsonl"
	}
	s := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(s) == 0:
		return "jsonl"
	case s[0] == '[' || s[0] == ';':
		return "edn"
	case bytes.HasPrefix(s, []byte("{:")):
		return "edn"
	default:
		return "jsonl"
	}
}

// historyRemote ships the lowered descriptor stream to the remote
// adjudicator and maps its verdict onto the exit-code contract.
func historyRemote(l *history.Lowering, a sctest.Adjudicator, opts ...sctest.CheckOpt) int {
	err := sctest.RemoteHistory(a, opts...)(l)
	if err == nil {
		fmt.Printf("accepted: %s\n", l.Summary())
		return 0
	}
	var ve *scserve.VerdictError
	if errors.As(err, &ve) {
		return reportVerdict(ve.Verdict)
	}
	fmt.Fprintf(os.Stderr, "sccheck history: %v\n", err)
	return 2
}

// historyBench measures end-to-end ingestion throughput: parse canonical
// JSONL, lower, and check, for a clean arm and an anomalous arm, writing
// histories/s and ops/s. The corpus is generated, rendered to JSONL once,
// and replayed from memory so the numbers measure the pipeline, not the
// generator.
func historyBench(histories, ops int, out string) int {
	type arm struct {
		Name        string  `json:"name"`
		Histories   int     `json:"histories"`
		Ops         int64   `json:"ops"`
		Seconds     float64 `json:"seconds"`
		HistPerSec  float64 `json:"histories_per_sec"`
		OpsPerSec   float64 `json:"ops_per_sec"`
		Rejected    int     `json:"rejected"`
		BytesPerSec float64 `json:"bytes_per_sec"`
	}
	runArm := func(name string, kinds []history.AnomalyKind) (arm, error) {
		// Pre-render a small rotating corpus so parse cost is measured on
		// realistic bytes without the benchmark loop paying generation.
		const corpus = 16
		inputs := make([][]byte, corpus)
		for i := range inputs {
			g, err := history.Generate(history.GenConfig{
				Seed: int64(i + 1), Processes: 4, Keys: 3, Ops: ops, Anomalies: kinds,
			})
			if err != nil {
				return arm{}, err
			}
			var buf bytes.Buffer
			if err := g.History.WriteJSONL(&buf); err != nil {
				return arm{}, err
			}
			inputs[i] = buf.Bytes()
		}
		a := arm{Name: name, Histories: histories}
		var bytesIn int64
		start := time.Now()
		for i := 0; i < histories; i++ {
			data := inputs[i%corpus]
			bytesIn += int64(len(data))
			h, err := history.ParseJSONL(bytes.NewReader(data))
			if err != nil {
				return arm{}, err
			}
			l, err := history.Lower(h)
			if err != nil {
				return arm{}, err
			}
			a.Ops += int64(len(l.Trace))
			if err := l.Check(); err != nil {
				a.Rejected++
			}
		}
		a.Seconds = time.Since(start).Seconds()
		if a.Seconds > 0 {
			a.HistPerSec = float64(a.Histories) / a.Seconds
			a.OpsPerSec = float64(a.Ops) / a.Seconds
			a.BytesPerSec = float64(bytesIn) / a.Seconds
		}
		return a, nil
	}

	clean, err := runArm("clean", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccheck history: bench: %v\n", err)
		return 2
	}
	if clean.Rejected != 0 {
		fmt.Fprintf(os.Stderr, "sccheck history: bench: %d clean histories rejected\n", clean.Rejected)
		return 2
	}
	anom, err := runArm("anomalous", history.AllAnomalies())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccheck history: bench: %v\n", err)
		return 2
	}
	if anom.Rejected != anom.Histories {
		fmt.Fprintf(os.Stderr, "sccheck history: bench: only %d/%d anomalous histories rejected\n", anom.Rejected, anom.Histories)
		return 2
	}

	result := struct {
		Benchmark string    `json:"benchmark"`
		OpsPerRun int       `json:"base_ops_per_history"`
		Arms      []arm     `json:"arms"`
		When      time.Time `json:"when"`
	}{Benchmark: "schist", OpsPerRun: ops, Arms: []arm{clean, anom}, When: time.Now().UTC()}

	for _, a := range result.Arms {
		fmt.Printf("%-10s %7d histories, %9d ops in %6.2fs: %8.0f histories/s, %10.0f ops/s\n",
			a.Name, a.Histories, a.Ops, a.Seconds, a.HistPerSec, a.OpsPerSec)
	}
	if out != "" {
		data, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccheck history: bench: %v\n", err)
			return 2
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sccheck history: bench: %v\n", err)
			return 2
		}
		fmt.Printf("wrote %s\n", out)
	}
	return 0
}
