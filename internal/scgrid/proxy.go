package scgrid

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scverify/internal/scserve"
)

// proxyMaxFrame bounds frames the proxy will relay — the server's own
// default frame cap, so the proxy never accepts a frame its backend would
// refuse.
const proxyMaxFrame = 1 << 20

// Proxy is the wire-level face of the grid: it accepts plain scserve
// client connections, reads exactly one frame (the hello) to place the
// session — pinned by resume token, least-loaded otherwise — and then
// splices bytes between client and backend verbatim. Because the proxy
// never re-frames or re-orders session bytes after the hello, every
// verdict a client receives through it is byte-for-byte a backend
// checker's verdict; the proxy's own answers are limited to busy and
// transport-error verdicts for sessions it could not place.
//
// Unmodified scserve clients (sccheck -server, RetryClient) pointed at a
// proxy get grid semantics for free: resume tokens hash to a stable
// backend across reconnects, so checkpoint resumption works through the
// proxy exactly as against a single server.
type Proxy struct {
	g *Grid

	mu     sync.Mutex
	ln     net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed atomic.Bool
	active atomic.Int64
}

// NewProxy wraps a Grid (which owns placement, health, and admission)
// with the wire relay. The caller keeps ownership of the Grid.
func NewProxy(g *Grid) *Proxy {
	return &Proxy{g: g, conns: make(map[net.Conn]struct{})}
}

// Active returns the number of client connections currently relayed.
func (p *Proxy) Active() int64 { return p.active.Load() }

// Serve accepts client connections on ln until Shutdown (or a listener
// error). It blocks; run it in a goroutine for concurrent use.
func (p *Proxy) Serve(ln net.Listener) error {
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if p.closed.Load() {
				return nil
			}
			return err
		}
		p.mu.Lock()
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.handleConn(conn)
			p.mu.Lock()
			delete(p.conns, conn)
			p.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting and severs every relayed connection. In-flight
// sessions end with transport errors (which retrying clients absorb); no
// verdict is ever fabricated for them.
func (p *Proxy) Shutdown() {
	p.closed.Store(true)
	p.mu.Lock()
	if p.ln != nil {
		p.ln.Close()
	}
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// deliver writes a single proxy-originated verdict frame to the client.
func deliver(bw *bufio.Writer, v scserve.Verdict) {
	if err := scserve.WriteRawFrame(bw, scserve.FrameVerdict, scserve.AppendVerdict(nil, v)); err == nil {
		bw.Flush()
	}
}

// handleConn relays one client connection through one backend.
func (p *Proxy) handleConn(conn net.Conn) {
	defer conn.Close()
	p.active.Add(1)
	defer p.active.Add(-1)

	cfg := p.g.cfg
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	// The hello is the only frame the proxy interprets.
	conn.SetReadDeadline(time.Now().Add(cfg.Timeout))
	typ, payload, err := scserve.ReadRawFrame(br, proxyMaxFrame)
	if err != nil {
		return
	}
	if typ != scserve.FrameHello {
		deliver(bw, scserve.ErrorVerdict(fmt.Sprintf("grid: expected hello frame, got type 0x%02x", typ)))
		return
	}
	hello, err := scserve.ParseHello(payload)
	if err != nil {
		deliver(bw, scserve.ErrorVerdict(fmt.Sprintf("grid: %v", err)))
		return
	}

	// Place the session: admission may queue, and sheds with the busy
	// verdict — the same answer a saturated single server gives.
	b, err := p.g.pool.acquire(hello.Token, cfg.QueueWait)
	if err != nil {
		deliver(bw, shedVerdict(err))
		return
	}
	defer b.release()
	b.sessions.Add(1)
	if hello.Resume {
		b.resumes.Add(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	be, err := cfg.Dial(ctx, b.addr)
	cancel()
	if err != nil {
		p.g.pool.eject(b, err)
		deliver(bw, scserve.ErrorVerdict(fmt.Sprintf("grid: backend %s unreachable: %v", b.addr, err)))
		return
	}
	defer be.Close()

	// Replay the hello to the backend, then splice. Downstream is relayed
	// frame-aware so the proxy can account verdicts per backend; upstream
	// is a raw copy — the proxy adds nothing to the byte stream in either
	// direction.
	bebw := bufio.NewWriter(be)
	if err := scserve.WriteRawFrame(bebw, scserve.FrameHello, payload); err != nil {
		return
	}
	if err := bebw.Flush(); err != nil {
		return
	}
	p.splice(conn, br, bw, be, b)
}

// splice relays session bytes between client and backend until either
// side ends: upstream as a raw copy, downstream frame-aware so verdicts
// can be counted per backend. This is the path PR 5's "the proxy
// structurally cannot alter a verdict" claim lives on, so it is marked
// verdict-transparent: scvet's SV006 fails the build if any
// verdict-constructing or verdict-mutating call — deliver, ErrorVerdict,
// scserve.AppendVerdict, a Verdict literal — is ever introduced here.
// Parsing verdicts (read-only) is the one allowed touch.
//
//scvet:verdict-transparent
func (p *Proxy) splice(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, be net.Conn, b *backend) {
	conn.SetReadDeadline(time.Time{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(be, br) // client → backend, verbatim
		if hc, ok := be.(interface{ CloseWrite() error }); ok {
			hc.CloseWrite()
		}
	}()

	bebr := bufio.NewReader(be)
	for {
		typ, payload, err := scserve.ReadRawFrame(bebr, proxyMaxFrame)
		if err != nil {
			break
		}
		if typ == scserve.FrameVerdict {
			if v, perr := scserve.ParseVerdict(payload); perr == nil {
				if v.Draining() {
					// Read-only observation: the backend announced drain
					// mode; mark it so placement steers fresh sessions away.
					// The verdict itself is relayed untouched below.
					p.g.pool.setDraining(b, true)
				}
				if !v.Busy() {
					switch v.Code {
					case scserve.VerdictAccept:
						b.accepts.Add(1)
					case scserve.VerdictReject:
						b.rejects.Add(1)
					}
				}
			}
		}
		if err := scserve.WriteRawFrame(bw, typ, payload); err != nil {
			break
		}
		if err := bw.Flush(); err != nil {
			break
		}
	}
	// Sever the upstream copy (the client may still be mid-write) and wait
	// it out so the slot is released only once the relay is fully idle.
	conn.Close()
	be.Close()
	<-done
}
