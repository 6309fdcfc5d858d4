package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

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
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sccheck history [-in file] [-format auto|jsonl|edn] [-strict] [-explain] [-server addr | -grid addrs]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

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
