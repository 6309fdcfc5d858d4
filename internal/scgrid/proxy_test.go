package scgrid

import (
	"sync"
	"testing"
	"time"

	"scverify/internal/faultnet"
	"scverify/internal/scserve"

	"net"
)

// startProxy serves a proxy for g on a loopback listener.
func startProxy(t *testing.T, g *Grid) (*Proxy, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(g)
	done := make(chan error, 1)
	go func() { done <- p.Serve(ln) }()
	t.Cleanup(func() {
		p.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("proxy Serve: %v", err)
		}
	})
	return p, ln.Addr().String()
}

// waitIdle waits for every relayed connection to fully drain (slots are
// released only then).
func waitIdle(t *testing.T, p *Proxy) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("proxy still relaying %d connections", p.Active())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestProxyBasic: an unmodified scserve client through the proxy gets
// backend verdicts, and the proxy's per-backend accounting sees them.
func TestProxyBasic(t *testing.T) {
	b1 := startBackend(t, scserve.Config{})
	b2 := startBackend(t, scserve.Config{})
	g := newTestGrid(t, Config{}, b1, b2)
	p, addr := startProxy(t, g)

	rejStream, rejIdx := scserve.SyntheticReject(32)
	for i := 0; i < 12; i++ {
		c, err := scserve.DialTimeout(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			v, err := c.Check(scserve.SyntheticHeader(), rejStream)
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if v.Code != scserve.VerdictReject || v.Symbol != rejIdx {
				t.Fatalf("session %d: verdict %s, want reject at %d", i, v, rejIdx)
			}
		} else {
			v, err := c.Check(scserve.SyntheticHeader(), scserve.SyntheticAccept(64))
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if v.Code != scserve.VerdictAccept {
				t.Fatalf("session %d: verdict %s, want accept", i, v)
			}
		}
		c.Close()
	}
	waitIdle(t, p)
	var accepts, rejects, sessions int64
	for _, bs := range g.Stats().Backends {
		accepts += bs.Accepts
		rejects += bs.Rejects
		sessions += bs.Sessions
		if bs.InFlight != 0 {
			t.Errorf("backend %s leaked %d slots", bs.Addr, bs.InFlight)
		}
	}
	if sessions != 12 || accepts != 8 || rejects != 4 {
		t.Fatalf("proxy accounting: %d sessions, %d accepts, %d rejects; want 12/8/4", sessions, accepts, rejects)
	}
}

// TestProxyResume: an unmodified RetryClient pointed at the proxy, over a
// link that resets mid-stream, must end with the right verdict — the
// proxy's rendezvous pinning routes every reconnect of the token to the
// same backend, so the server-side checkpoint is found.
func TestProxyResume(t *testing.T) {
	b1 := startBackend(t, scserve.Config{AckInterval: 16})
	b2 := startBackend(t, scserve.Config{AckInterval: 16})
	g := newTestGrid(t, Config{}, b1, b2)
	_, addr := startProxy(t, g)

	fd := faultnet.NewDialer(faultnet.Config{Seed: 5, ResetAfterBytes: 4 << 10})
	rc := scserve.NewRetryClient(addr, scserve.RetryConfig{
		Seed:      9,
		PollEvery: 512,
		BaseDelay: 5 * time.Millisecond,
		MaxDelay:  100 * time.Millisecond,
		Dial:      fd.Dial,
	})

	v, err := rc.Check(scserve.SyntheticHeader(), scserve.SyntheticAccept(2000))
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("verdict %s, want accept", v)
	}
	if fd.Stats().Resets.Load() == 0 {
		t.Fatal("no reset fired — nothing was exercised")
	}
	var resumes int64
	for _, bs := range g.Stats().Backends {
		resumes += bs.Resumes
	}
	if resumes == 0 {
		t.Fatal("reconnects never resumed — token pinning through the proxy is broken")
	}
}

// TestProxyShedsBusy: a saturated pool answers proxied hellos with the
// busy verdict instead of hanging or dropping them.
func TestProxyShedsBusy(t *testing.T) {
	tb := startBackend(t, scserve.Config{})
	g := newTestGrid(t, Config{
		MaxInFlight: 1,
		QueueDepth:  1,
		QueueWait:   100 * time.Millisecond,
	}, tb)
	_, addr := startProxy(t, g)

	// Hold the only slot with a directly dispatched session.
	holder, err := g.Session(scserve.SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Send(scserve.SyntheticAccept(8)...); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	verdicts := make([]scserve.Verdict, 3)
	errs := make([]error, 3)
	for i := range verdicts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := scserve.DialTimeout(addr, 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			verdicts[i], errs[i] = c.Check(scserve.SyntheticHeader(), scserve.SyntheticAccept(8))
		}(i)
	}
	wg.Wait()
	for i := range verdicts {
		if errs[i] != nil {
			t.Fatalf("proxied session %d: %v, want busy verdict", i, errs[i])
		}
		if !verdicts[i].Busy() {
			t.Fatalf("proxied session %d: verdict %s, want busy", i, verdicts[i])
		}
	}

	if v, err := holder.Finish(); err != nil || v.Code != scserve.VerdictAccept {
		t.Fatalf("held session: %v, %v", v, err)
	}
}

// TestProxyRejectsNonHello: a connection whose first frame is not a hello
// gets a positioned protocol-error verdict, not a hang.
func TestProxyRejectsNonHello(t *testing.T) {
	tb := startBackend(t, scserve.Config{})
	g := newTestGrid(t, Config{}, tb)
	_, addr := startProxy(t, g)

	c, err := scserve.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A Session sends hello lazily buffered; force a bogus first frame by
	// speaking raw bytes instead.
	c.Close()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x03, 0x00}); err != nil { // end frame first
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if n == 0 {
		t.Fatal("proxy closed without answering a bogus first frame")
	}
	if buf[0] != scserve.FrameVerdict {
		t.Fatalf("first reply frame type 0x%02x, want verdict", buf[0])
	}
}
