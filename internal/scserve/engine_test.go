package scserve_test

import (
	"context"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/faultnet"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
)

// The session engine's contract, run per placement: the same table
// drives RetryClient's single address and a three-backend scgrid pool,
// so a fault the engine survives in one placement it survives in both.

// backend is one restartable scserve server.
type backend struct {
	t    *testing.T
	addr string
	cfg  scserve.Config

	mu   sync.Mutex
	srv  *scserve.Server
	done chan error
}

func startBackends(t *testing.T, n int, cfg scserve.Config) []*backend {
	t.Helper()
	bs := make([]*backend, n)
	for i := range bs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = &backend{t: t, addr: ln.Addr().String(), cfg: cfg}
		bs[i].serve(ln)
		t.Cleanup(bs[i].kill)
	}
	return bs
}

func (b *backend) serve(ln net.Listener) {
	srv := scserve.New(b.cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	b.mu.Lock()
	b.srv, b.done = srv, done
	b.mu.Unlock()
}

func (b *backend) server() *scserve.Server {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.srv
}

// kill hard-stops the server, severing every connection mid-frame.
func (b *backend) kill() {
	b.mu.Lock()
	srv, done := b.srv, b.done
	b.srv = nil
	b.mu.Unlock()
	if srv == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)
	<-done
}

// restart brings up a fresh server — empty checkpoint store — on the same
// address.
func (b *backend) restart() {
	b.t.Helper()
	b.kill()
	for i := 0; ; i++ {
		ln, err := net.Listen("tcp", b.addr)
		if err == nil {
			b.serve(ln)
			return
		}
		if i == 50 {
			b.t.Fatalf("restart on %s: %v", b.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sum adds one counter across the fleet's current servers.
func sum(bs []*backend, f func(scserve.Stats) int64) int64 {
	var n int64
	for _, b := range bs {
		n += f(b.server().Stats())
	}
	return n
}

type opener func(scserve.Header) (*scserve.RetrySession, error)

// placements are the engine's two placements over a fleet of backends.
var placements = []struct {
	name     string
	backends int
	open     func(t *testing.T, bs []*backend, cfg scserve.RetryConfig) opener
}{
	{"single", 1, func(t *testing.T, bs []*backend, cfg scserve.RetryConfig) opener {
		return scserve.NewRetryClient(bs[0].addr, cfg).Session
	}},
	{"pool", 3, func(t *testing.T, bs []*backend, cfg scserve.RetryConfig) opener {
		addrs := make([]string, len(bs))
		for i, b := range bs {
			addrs[i] = b.addr
		}
		g, err := scgrid.New(addrs, scgrid.Config{ProbeInterval: -1, RetryConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g.Session
	}},
}

func tokened() scserve.Header {
	h := scserve.SyntheticHeader()
	h.Token = scserve.NewToken()
	return h
}

// sendChunks streams wire in chunks of n bytes, stopping at the first
// error.
func sendChunks(s *scserve.RetrySession, wire []byte, n int) error {
	for len(wire) > 0 {
		k := min(n, len(wire))
		if err := s.SendBytes(wire[:k]); err != nil {
			return err
		}
		wire = wire[k:]
	}
	return nil
}

func TestSessionEngine(t *testing.T) {
	// poolOnly rows are covered for the single address by
	// TestRetryClientResumes and TestRetryClientBusy.
	cases := []struct {
		name     string
		poolOnly bool
		run      func(t *testing.T, backends int, open func([]*backend, scserve.RetryConfig) opener)
	}{
		{"cut-then-resume", true, testCutThenResume},
		{"busy-retry", true, testBusyRetry},
		{"drain-redirect-budget", false, testDrainRedirectBudget},
		{"restart-replays-from-zero", false, testRestartReplaysFromZero},
		{"trimmed-resume-miss-errors", false, testTrimmedResumeMiss},
		{"stream-beyond-max-buffer", false, testBeyondMaxBuffer},
	}
	for _, p := range placements {
		for _, c := range cases {
			if c.poolOnly && p.name != "pool" {
				continue
			}
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				c.run(t, p.backends, func(bs []*backend, cfg scserve.RetryConfig) opener {
					return p.open(t, bs, cfg)
				})
			})
		}
	}
}

// testCutThenResume: the first connection dies mid-stream; the session
// reconnects, resumes from the checkpoint, and delivers the exact
// verdict with stream-absolute positions.
func testCutThenResume(t *testing.T, n int, open func([]*backend, scserve.RetryConfig) opener) {
	bs := startBackends(t, n, scserve.Config{AckInterval: 64})
	stream, rejectIdx := scserve.SyntheticReject(5000)
	wire := descriptor.Marshal(stream)
	var dials atomic.Int64
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		if err == nil && dials.Add(1) == 1 {
			conn = faultnet.Wrap(conn, faultnet.Config{Seed: 42, ResetAfterBytes: int64(len(wire)) * 3 / 4}, nil)
		}
		return conn, err
	}
	s, err := open(bs, scserve.RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: time.Millisecond, Seed: 1, PollEvery: 2 << 10, Dial: dial,
	})(tokened())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SendBytes(wire); err != nil {
		t.Fatal(err)
	}
	v, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(descriptor.Marshal(stream[:rejectIdx])))
	if v.Code != scserve.VerdictReject || v.Symbol != rejectIdx || v.Offset != off {
		t.Fatalf("verdict %v, want reject at symbol %d byte %d", v, rejectIdx, off)
	}
	if dials.Load() < 2 {
		t.Fatalf("dials = %d, want at least 2 (a reset was injected)", dials.Load())
	}
	if got := sum(bs, func(st scserve.Stats) int64 { return st.Resumes }); got < 1 {
		t.Fatalf("server resumes = %d, want >= 1", got)
	}
}

// testBusyRetry: every server is at capacity; the session backs off
// until a slot frees and then delivers the genuine verdict.
func testBusyRetry(t *testing.T, n int, open func([]*backend, scserve.RetryConfig) opener) {
	bs := startBackends(t, n, scserve.Config{MaxSessions: 1})
	var held []*scserve.Session
	for _, b := range bs {
		c, err := scserve.DialTimeout(b.addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, err := c.Session(scserve.SyntheticHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(scserve.SyntheticAccept(20)...); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sum(bs, func(st scserve.Stats) int64 { return st.SessionsActive }) != int64(n) {
		if time.Now().After(deadline) {
			t.Fatal("occupying sessions never became active")
		}
		time.Sleep(time.Millisecond)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		time.Sleep(50 * time.Millisecond)
		for _, s := range held {
			if v, err := s.Finish(); err != nil || v.Code != scserve.VerdictAccept {
				t.Errorf("occupier finish: %v, %v", v, err)
			}
		}
	}()
	s, err := open(bs, scserve.RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: 25 * time.Millisecond, MaxAttempts: 10, Seed: 1,
	})(tokened())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send(scserve.SyntheticAccept(30)...); err != nil {
		t.Fatal(err)
	}
	v, err := s.Finish()
	<-released
	if err != nil {
		t.Fatalf("retry across busy failed: %v", err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("verdict %v, want accept", v)
	}
	if got := sum(bs, func(st scserve.Stats) int64 { return st.Busy }); got < 1 {
		t.Fatalf("busy counter = %d, want >= 1", got)
	}
}

// testDrainRedirectBudget: with every server draining, the free
// redirects run out and the session degrades to busy backoff and a
// bounded, clean error — no hot loop, no verdict.
func testDrainRedirectBudget(t *testing.T, n int, open func([]*backend, scserve.RetryConfig) opener) {
	bs := startBackends(t, n, scserve.Config{})
	for _, b := range bs {
		b.server().Drain()
	}
	s, err := open(bs, scserve.RetryConfig{
		Timeout: 5 * time.Second, MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 1,
	})(tokened())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	err = s.Send(scserve.SyntheticAccept(9)...)
	if err == nil {
		var v scserve.Verdict
		v, err = s.Finish()
		if err == nil {
			t.Fatalf("a fully draining fleet delivered verdict %v", v)
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("draining fleet took %s to fail; redirect budget not bounded?", elapsed)
	}
	if got := sum(bs, func(st scserve.Stats) int64 { return st.DrainRejects }); got < 2 {
		t.Fatalf("drain rejects = %d, want >= 2 (every attempt answered cleanly)", got)
	}
}

// testRestartReplaysFromZero: every server restarts mid-session and loses
// its checkpoints; the resume miss restarts the stream from byte 0, which
// the buffer still holds, and the verdict is right.
func testRestartReplaysFromZero(t *testing.T, n int, open func([]*backend, scserve.RetryConfig) opener) {
	bs := startBackends(t, n, scserve.Config{AckInterval: 8})
	s, err := open(bs, scserve.RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: time.Millisecond, Seed: 1, PollEvery: 128,
	})(tokened())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stream := scserve.SyntheticAccept(800)
	half := len(stream) / 2
	if err := s.Send(stream[:half]...); err != nil {
		t.Fatal(err)
	}
	if err := scserve.AwaitAck(s, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		b.restart()
	}
	if err := s.Send(stream[half:]...); err != nil {
		t.Fatal(err)
	}
	v, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("verdict %v, want accept — the replay from byte 0 lost bytes", v)
	}
	if got := sum(bs, func(st scserve.Stats) int64 { return st.ResumeMisses }); got < 1 {
		t.Fatalf("resume misses = %d, want >= 1", got)
	}
}

// testTrimmedResumeMiss: a stream that outgrew MaxBuffer has trimmed its
// head; when the restarted server misses the resume, byte 0 is gone and
// the session must end with a clean error, never a verdict.
func testTrimmedResumeMiss(t *testing.T, n int, open func([]*backend, scserve.RetryConfig) opener) {
	bs := startBackends(t, n, scserve.Config{AckInterval: 8})
	s, err := open(bs, scserve.RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: time.Millisecond, Seed: 1, PollEvery: 256, MaxBuffer: 4 << 10,
	})(tokened())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wire := descriptor.Marshal(scserve.SyntheticAccept(4000))
	cut := len(wire) / 2
	if err := sendChunks(s, wire[:cut], 256); err != nil {
		t.Fatal(err)
	}
	if scserve.ReplayStart(s) == 0 {
		t.Fatalf("%d bytes through a %d-byte buffer never trimmed it", cut, 4<<10)
	}
	for _, b := range bs {
		b.restart()
	}
	err = sendChunks(s, wire[cut:], 256)
	if err == nil {
		var v scserve.Verdict
		if v, err = s.Finish(); err == nil {
			t.Fatalf("verdict %v delivered although the stream head was trimmed", v)
		}
	}
	if !strings.Contains(err.Error(), "trimmed") {
		t.Fatalf("error %q does not name the trimmed head", err)
	}
}

// testBeyondMaxBuffer: a stream many times MaxBuffer goes through as long
// as acks keep the unacked tail under the cap.
func testBeyondMaxBuffer(t *testing.T, n int, open func([]*backend, scserve.RetryConfig) opener) {
	bs := startBackends(t, n, scserve.Config{AckInterval: 8})
	s, err := open(bs, scserve.RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: time.Millisecond, Seed: 1, PollEvery: 256, MaxBuffer: 4 << 10,
	})(tokened())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wire := descriptor.Marshal(scserve.SyntheticAccept(4000))
	if err := sendChunks(s, wire, 256); err != nil {
		t.Fatal(err)
	}
	v, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("verdict %v, want accept", v)
	}
	if scserve.ReplayStart(s) == 0 {
		t.Fatalf("a %d-byte stream fit a %d-byte buffer untrimmed", len(wire), 4<<10)
	}
}

// TestSessionsJitterIndependently: sessions of one seeded grid, with
// equal-length tokens, must not share a backoff sequence — reconnecting
// in lockstep is what the jitter exists to prevent. The seed still makes
// the jitter reproducible: the first session of a second, identically
// seeded placement backs off exactly like the first one's.
func TestSessionsJitterIndependently(t *testing.T) {
	cfg := scserve.RetryConfig{Seed: 7, BaseDelay: time.Second, MaxDelay: time.Minute}
	pool := func() opener {
		g, err := scgrid.New([]string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"},
			scgrid.Config{ProbeInterval: -1, RetryConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g.Session
	}
	single := func() opener { return scserve.NewRetryClient("10.0.0.1:1", cfg).Session }
	for name, placement := range map[string]func() opener{"pool": pool, "single": single} {
		delays := func(open opener) []time.Duration {
			s, err := open(tokened())
			if err != nil {
				t.Fatal(err)
			}
			return scserve.BackoffDelays(s, 6)
		}
		open := placement()
		d1, d2 := delays(open), delays(open)
		if reflect.DeepEqual(d1, d2) {
			t.Errorf("%s: two sessions of one seeded config back off identically: %v", name, d1)
		}
		if again := delays(placement()); !reflect.DeepEqual(d1, again) {
			t.Errorf("%s: first sessions of two placements seeded alike back off differently: %v vs %v", name, d1, again)
		}
	}
}
