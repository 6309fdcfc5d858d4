package main

import (
	"bytes"
	"context"
	"flag"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/scserve"
	"scverify/internal/sctest"
	"scverify/internal/trace"
)

// startServer runs an scserve backend for the exit-code tests.
func startServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := scserve.New(scserve.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String()
}

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestExitCodes pins the documented contract for both remote modes:
// 0 = the checker accepted, 1 = the checker rejected, 2 = the check did
// not happen (transport failure) — never conflated.
func TestExitCodes(t *testing.T) {
	addr := startServer(t)
	params := trace.Params{Procs: 1, Blocks: 1, Values: 2}
	acceptWire := descriptor.Marshal(scserve.SyntheticAccept(64))
	rejectStream, _ := scserve.SyntheticReject(32)
	rejectWire := descriptor.Marshal(rejectStream)

	// Each mode goes through the same flags the command registers.
	remote := func(wire []byte, tiered bool, args ...string) int {
		fs := flag.NewFlagSet("sccheck", flag.ContinueOnError)
		rf := sctest.AddRemoteFlags(fs)
		if err := fs.Parse(append(args, "-server-timeout", "2s", "-server-retries", "2")); err != nil {
			t.Fatal(err)
		}
		a, err := rf.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer rf.Close()
		return remoteMain(bytes.NewReader(wire), a, scserve.Header{K: scserve.SyntheticK, Params: params, Tiered: tiered})
	}
	modes := []struct {
		name string
		run  func(wire []byte, target string) int
	}{
		{"server", func(wire []byte, target string) int {
			return remote(wire, false, "-server", target)
		}},
		{"grid", func(wire []byte, target string) int {
			return remote(wire, false, "-grid", target)
		}},
		// Asking for tiers must not disturb the exit-code contract.
		{"server-tier", func(wire []byte, target string) int {
			return remote(wire, true, "-server", target)
		}},
		{"grid-tier", func(wire []byte, target string) int {
			return remote(wire, true, "-grid", target)
		}},
	}
	for _, m := range modes {
		if got := m.run(acceptWire, addr); got != 0 {
			t.Errorf("%s: accepting stream: exit %d, want 0", m.name, got)
		}
		if got := m.run(rejectWire, addr); got != 1 {
			t.Errorf("%s: rejecting stream: exit %d, want 1", m.name, got)
		}
		if got := m.run(acceptWire, deadAddr(t)); got != 2 {
			t.Errorf("%s: dead backend: exit %d, want 2 (transport, not a verdict)", m.name, got)
		}
	}
}

// TestHistoryExitCodes pins the same contract for the history subcommand
// across all three adjudication modes: 0 = the history is SC-accepted,
// 1 = the checker rejected it, 2 = the check did not happen (malformed
// input or transport failure).
func TestHistoryExitCodes(t *testing.T) {
	addr := startServer(t)
	clean := "../../examples/histories/clean.jsonl"
	stale := "../../examples/histories/stale-read.jsonl"
	malformed := filepath.Join(t.TempDir(), "malformed.jsonl")
	if err := os.WriteFile(malformed, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	modes := []struct {
		name  string
		extra []string
	}{
		{"local", nil},
		{"local-tier", []string{"-tier"}},
		{"server", []string{"-server", addr, "-server-timeout", "2s", "-server-retries", "2"}},
		{"server-tier", []string{"-tier", "-server", addr, "-server-timeout", "2s", "-server-retries", "2"}},
		{"grid", []string{"-grid", addr, "-server-timeout", "2s", "-server-retries", "2"}},
	}
	for _, m := range modes {
		run := func(in string) int {
			return historyMain(append([]string{"-in", in, "-q"}, m.extra...))
		}
		if got := run(clean); got != 0 {
			t.Errorf("%s: clean history: exit %d, want 0", m.name, got)
		}
		if got := run(stale); got != 1 {
			t.Errorf("%s: stale-read history: exit %d, want 1", m.name, got)
		}
		if got := run(malformed); got != 2 {
			t.Errorf("%s: malformed input: exit %d, want 2", m.name, got)
		}
	}

	// Transport failure must be exit 2, not a verdict.
	dead := deadAddr(t)
	if got := historyMain([]string{"-in", clean, "-q", "-server", dead, "-server-timeout", "500ms", "-server-retries", "1"}); got != 2 {
		t.Errorf("dead backend: exit %d, want 2 (transport, not a verdict)", got)
	}

	// The explain path keeps the rejection exit code.
	if got := historyMain([]string{"-in", "../../examples/histories/partition.edn", "-explain"}); got != 1 {
		t.Errorf("explain on anomalous EDN history: exit %d, want 1", got)
	}
}
