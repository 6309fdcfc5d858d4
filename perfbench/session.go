package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"scverify/internal/checker"
	"scverify/internal/cycle"
	"scverify/internal/descriptor"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/scserve"
	"scverify/internal/trace"
)

// Session workload shape. Directory streams of dirSymbols symbols at k=24
// take tens of ms per session; storebuffer streams of sbSymbols symbols
// are rejected within the first few hundred, so the server also absorbs a
// long tail. Every stream is cut at its length (the observer output of a
// run prefix, which is itself a run), so that every seed streams the same
// number of symbols. Every sbEvery-th session streams a storebuffer run,
// and every other session carries a resume token, so the server takes
// checker checkpoints. The percentiles cover the directory sessions the
// checker accepts; a directory run it rejects (rarely, on long runs)
// leaves their count above 100 as long as at most two of the streams
// are rejected.
const (
	dirStreams      = 12
	sbStreams       = 3
	dirSymbols      = 22000
	sbSymbols       = 70000
	sessionsPerPass = 144
	sbEvery         = 8
	sendChunk       = 4096 // symbols per Session.Send call
	ackInterval     = 1024 // the server's default checkpoint interval
)

type sessionStream struct {
	label  string
	params trace.Params
	k      int
	syms   descriptor.Stream
	accept bool // expected verdict: accept, or reject at symbol
	symbol int  // index of the rejecting symbol (len(syms) for end of stream)
}

type sessionOp struct {
	stream *sessionStream
	token  bool
	timed  bool
}

type session struct {
	streams []*sessionStream
	ops     []sessionOp
	seed    int64
	tokens  int

	srv    *scserve.Server
	served chan error
	client *scserve.Client
}

func (s *session) workUnit() string { return "symbols" }

// setup generates the streams, computes each expected verdict with an
// in-process checker, and starts a server with one client connection.
func (s *session) setup(seed int64) error {
	s.close()
	s.seed, s.streams, s.ops = seed, nil, nil
	dir, err := sessionStreams("directory", dirStreams, dirSymbols, seed)
	if err != nil {
		return err
	}
	sb, err := sessionStreams("storebuffer", sbStreams, sbSymbols, seed+1_000_000)
	if err != nil {
		return err
	}
	s.streams = append(dir, sb...)
	for i := 0; i < sessionsPerPass; i++ {
		op := sessionOp{token: i%2 == 1}
		if i%sbEvery == sbEvery-1 {
			op.stream = sb[(i/sbEvery)%len(sb)]
		} else {
			op.stream = dir[i%len(dir)]
			op.timed = op.stream.accept
		}
		s.ops = append(s.ops, op)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = scserve.New(scserve.Config{AckInterval: ackInterval})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client, err = scserve.DialTimeout(ln.Addr().String(), time.Minute)
	return err
}

// sessionStreams records the observer output of n random runs of a
// protocol at p=2 b=2 v=2, each cut once it reaches the given number of
// symbols, with each stream's expected verdict.
func sessionStreams(name string, n, symbols int, seed int64) ([]*sessionStream, error) {
	params := trace.Params{Procs: 2, Blocks: 2, Values: 2}
	tgt, err := registry.Build(name, registry.Options{Params: params})
	if err != nil {
		return nil, err
	}
	var out []*sessionStream
	for i := 0; i < n; i++ {
		// protocol.RandomRun's walk, stopped at the symbol count.
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		runner := protocol.NewRunner(tgt.Protocol)
		st := &sessionStream{label: fmt.Sprintf("%s run %d", name, i), params: params}
		obs := observer.New(tgt.Protocol, tgt.Generator(), observer.Config{PoolSize: tgt.PoolSize},
			func(sym descriptor.Symbol) error { st.syms = append(st.syms, sym); return nil })
		for len(st.syms) < symbols {
			en := runner.Enabled()
			if len(en) == 0 {
				return nil, fmt.Errorf("%s: deadlock after %d symbols", st.label, len(st.syms))
			}
			tr := en[rng.Intn(len(en))]
			runner.Take(tr)
			if err := obs.Step(tr); err != nil {
				return nil, fmt.Errorf("%s: observer: %w", st.label, err)
			}
		}
		if err := obs.Finish(); err != nil {
			return nil, fmt.Errorf("%s: observer finish: %w", st.label, err)
		}
		st.k = obs.K()
		st.accept, st.symbol = referenceVerdict(st)
		out = append(out, st)
	}
	return out, nil
}

// referenceVerdict runs the stream through an in-process checker set up
// as the server sets up its own.
func referenceVerdict(st *sessionStream) (accept bool, symbol int) {
	chk := checker.New(st.k).EnableWitness()
	chk.SetParams(st.params)
	for i, sym := range st.syms {
		if chk.Step(sym) != nil {
			return false, i
		}
	}
	if chk.Finish() != nil {
		return false, len(st.syms)
	}
	return true, -1
}

func (s *session) close() {
	if s.client != nil {
		s.client.Close()
		s.client = nil
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
		<-s.served
		s.srv = nil
	}
}

func (s *session) header(op sessionOp) scserve.Header {
	h := scserve.Header{K: op.stream.k, Params: op.stream.params}
	if op.token {
		s.tokens++
		h.Token = fmt.Sprintf("%016x%016x", uint64(s.seed), uint64(s.tokens))
	}
	return h
}

func checkVerdict(st *sessionStream, v scserve.Verdict) error {
	switch {
	case st.accept && v.Code == scserve.VerdictAccept:
		return nil
	case !st.accept && v.Code == scserve.VerdictReject && v.Symbol == st.symbol:
		return nil
	case st.accept:
		return fmt.Errorf("verdict %v, want accept", v)
	}
	return fmt.Errorf("verdict %v, want reject at symbol %d", v, st.symbol)
}

func (s *session) pass(t *tracer) passResult {
	var r passResult
	for i, op := range s.ops {
		r.attempted++
		r.work += int64(len(op.stream.syms))
		if t != nil {
			t.setOp(i)
			if err := s.tracedOp(t, op); err != nil {
				r.fail("%s (traced): %v", op.stream.label, err)
			}
			continue
		}
		t0 := time.Now()
		v, err := s.stream(op)
		d := time.Since(t0)
		if err == nil {
			err = checkVerdict(op.stream, v)
		}
		if err != nil {
			r.fail("%s: %v", op.stream.label, err)
		} else if op.timed {
			r.latencies = append(r.latencies, float64(d)/1e6)
		}
	}
	return r
}

// stream runs one session: the whole stream in Send calls, then Finish.
func (s *session) stream(op sessionOp) (scserve.Verdict, error) {
	sess, err := s.client.Session(s.header(op))
	if err != nil {
		return scserve.Verdict{}, err
	}
	syms := op.stream.syms
	for len(syms) > 0 {
		n := min(len(syms), sendChunk)
		if err := sess.Send(syms[:n]...); err != nil {
			return scserve.Verdict{}, err
		}
		syms = syms[n:]
	}
	return sess.Finish()
}

// Span names of the traced session.
const (
	spEncode      = "descriptor.encode"
	spSend        = "scserve.send"
	spVerdictWait = "scserve.verdict_wait"
	spFrameWrite  = "scserve.frame_write"
	spFrameRead   = "scserve.frame_read"
	spDecode      = "descriptor.decode"
	spTracker     = "descriptor.tracker"
	spCycleStep   = "cycle.step"
	spServerSide  = "session.server_side"
)

// tracedOp runs the session over the wire with spans around the client's
// encoding, sending and verdict wait, then re-enacts the server's side in
// process on the same bytes — frame codec, decoder, checker (with its
// checkpoint clones on token sessions) — with a span around each call. The
// descriptor Tracker and cycle checker are fed the same symbols on their
// own: the server's checker embeds a cycle checker the benchmark cannot
// time from outside, and the Tracker is not on the server's path.
func (s *session) tracedOp(t *tracer, op sessionOp) error {
	var (
		idEncode = t.id(spEncode)
		idSend   = t.id(spSend)
		idWait   = t.id(spVerdictWait)
	)
	sess, err := s.client.Session(s.header(op))
	if err != nil {
		return err
	}
	var wire, buf []byte
	syms := op.stream.syms
	for len(syms) > 0 {
		n := min(len(syms), sendChunk)
		buf = buf[:0]
		for _, sym := range syms[:n] {
			t.begin(idEncode)
			buf = descriptor.AppendBinary(buf, sym)
			t.end()
		}
		wire = append(wire, buf...)
		t.begin(idSend)
		err := sess.SendBytes(buf)
		t.end()
		if err != nil {
			return err
		}
		syms = syms[n:]
	}
	t.begin(idWait)
	v, err := sess.Finish()
	t.end()
	if err != nil {
		return err
	}
	if err := checkVerdict(op.stream, v); err != nil {
		return err
	}
	t.count("session.bytes", int64(len(wire)))
	t.count("session.symbols", int64(len(op.stream.syms)))
	return serverSide(t, op, wire)
}

// serverSide re-enacts the server's pipeline on a session's wire bytes.
func serverSide(t *tracer, op sessionOp, wire []byte) error {
	var (
		idSide   = t.id(spServerSide)
		idWrite  = t.id(spFrameWrite)
		idRead   = t.id(spFrameRead)
		idDecode = t.id(spDecode)
		idTrack  = t.id(spTracker)
		idCycle  = t.id(spCycleStep)
		idStep   = t.id(spChkStep)
		idClone  = t.id(spChkClone)
	)
	t.begin(idSide)
	defer t.end()

	var framed bytes.Buffer
	bw := bufio.NewWriterSize(&framed, 64<<10)
	for rest := wire; len(rest) > 0; {
		n := min(len(rest), 32<<10)
		t.begin(idWrite)
		err := scserve.WriteRawFrame(bw, scserve.FrameSymbols, rest[:n])
		t.end()
		if err != nil {
			return err
		}
		rest = rest[n:]
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	br := bufio.NewReaderSize(&framed, 64<<10)
	var payload bytes.Buffer
	for {
		t.begin(idRead)
		typ, p, err := scserve.ReadRawFrame(br, 1<<20)
		t.end()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if typ != scserve.FrameSymbols {
			return fmt.Errorf("frame type %#x, want symbols", typ)
		}
		payload.Write(p)
	}

	st := op.stream
	dec := descriptor.NewDecoder(&payload)
	tracker := descriptor.NewTracker()
	cyc := cycle.New(st.k)
	chk := checker.New(st.k).EnableWitness()
	chk.SetParams(st.params)
	nodes := 0
	for i := 0; ; i++ {
		t.begin(idDecode)
		sym, err := dec.Next()
		t.end()
		if errors.Is(err, io.EOF) {
			if chk.Finish() != nil {
				return expectReject(st, i)
			}
			break
		}
		if err != nil {
			return err
		}
		if _, ok := sym.(descriptor.Node); ok {
			nodes++
		}
		t.begin(idTrack)
		tracker.Apply(sym)
		t.end()
		t.begin(idCycle)
		cyc.Step(sym)
		t.end()
		t.begin(idStep)
		serr := chk.Step(sym)
		t.end()
		if serr != nil {
			return expectReject(st, i)
		}
		if op.token && (i+1)%ackInterval == 0 {
			t.begin(idClone)
			chk.Clone()
			t.end()
		}
	}
	t.count("session.nodes", int64(nodes))
	t.count("session.contractions", int64(cyc.Stats().Contractions))
	if !st.accept {
		return fmt.Errorf("server-side re-enactment accepts; want reject at symbol %d", st.symbol)
	}
	return nil
}

func expectReject(st *sessionStream, at int) error {
	if st.accept || st.symbol != at {
		return fmt.Errorf("server-side re-enactment rejects at symbol %d; want %v at %d", at, st.accept, st.symbol)
	}
	return nil
}

func (s *session) layers(t *tracer) []metric {
	// Checker allocation per symbol, over each directory stream once.
	var dirs []*sessionStream
	for _, st := range s.streams {
		if st.accept {
			dirs = append(dirs, st)
		}
	}
	var syms int
	for _, st := range dirs {
		syms += len(st.syms)
	}
	b, allocs := allocPerCall(len(dirs), func(i int) {
		chk := checker.New(dirs[i].k).EnableWitness()
		chk.SetParams(dirs[i].params)
		for _, sym := range dirs[i].syms {
			chk.Step(sym)
		}
	})
	perSym := float64(len(dirs)) / float64(syms)
	wait := t.stat(spVerdictWait)
	return []metric{
		{"descriptor.encode_ns", t.selfPerCall(spEncode), "ns"},
		{"scserve.frame_write_ns", t.selfPerCall(spFrameWrite), "ns"},
		{"scserve.frame_read_ns", t.selfPerCall(spFrameRead), "ns"},
		{"descriptor.decode_ns", t.selfPerCall(spDecode), "ns"},
		{"descriptor.tracker_ns", t.selfPerCall(spTracker), "ns"},
		{"cycle.step_ns", t.selfPerCall(spCycleStep), "ns"},
		{"checker.step_ns", t.selfPerCall(spChkStep), "ns"},
		{"checker.step_b", b * perSym, "B"},
		{"checker.step_allocs", allocs * perSym, "allocs"},
		{"checker.clone_ns", t.selfPerCall(spChkClone), "ns"},
		{"scserve.verdict_wait_ms", float64(wait.total) / float64(max(wait.calls, 1)) / 1e6, "ms"},
		{"scserve.bytes_per_symbol", float64(t.counts["session.bytes"]) / float64(t.counts["session.symbols"]), "B"},
		{"cycle.contractions_per_node", float64(t.counts["session.contractions"]) / float64(t.counts["session.nodes"]), "ratio"},
	}
}
