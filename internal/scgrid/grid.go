// Package scgrid is the sharded multi-backend checking fabric: a
// client-side dispatcher that spreads SC-checking sessions across a pool
// of scserve backends. The paper's checker is linear in trace length and
// every session is independent, which makes checking embarrassingly
// shardable — aggregate throughput should scale with backends — but only
// if the fabric never trades a fault for a wrong verdict. scgrid keeps
// the scserve/PR-4 invariant end to end: a backend death, restart, or
// network blip may cost a session retries or a clean error, yet every
// verdict actually delivered is the deterministic checker's verdict over
// exactly the bytes the session streamed.
//
// The pieces:
//
//   - A backend pool with periodic health probes (a hello/verdict round
//     trip over the real session path), ejection on failure, jittered
//     re-admission, and per-backend in-flight accounting.
//   - A dispatcher that places one-shot sessions by power-of-two-choices
//     least-loaded selection, and pins tokened (resumable) sessions by
//     rendezvous hashing on the resume token — so a reconnect after a
//     transient blip lands on the original backend and resumes from its
//     checkpoint, while a reconnect after a backend death remaps to a
//     live backend and starts fresh from the session's replay buffer.
//   - Admission control: a bounded wait queue with deadline-aware
//     shedding that answers with the existing scserve busy verdict
//     instead of stacking unbounded latency.
//
// Grid sessions run on scserve's one session engine (RetrySession); the
// grid is its pool placement. The engine keeps the whole stream until it
// would outgrow MaxBuffer, so failover to a different backend replays
// from byte zero, and a session that had to trim its head ends with a
// clean error rather than a verdict over anything less than the exact
// stream. Resume-on-blip still pays off — the pinned backend checks only
// the unacked tail — but correctness never depends on a checkpoint
// surviving.
package scgrid

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/scserve"
)

// Grid dispatches checking sessions across a pool of scserve backends.
// Construct with New; Grid is safe for concurrent use (each Session is
// single-goroutine, like scserve's clients).
type Grid struct {
	cfg  Config
	pool *pool
	seq  atomic.Int64 // sessions opened, numbering their jitter streams
}

// New builds a grid over the given backend addresses and starts its
// health prober. Backends start presumed-healthy and are ejected by their
// first failed probe or dial.
func New(addrs []string, cfg Config) (*Grid, error) {
	if len(addrs) == 0 {
		return nil, errors.New("scgrid: no backends")
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" {
			return nil, errors.New("scgrid: empty backend address")
		}
		if seen[a] {
			return nil, fmt.Errorf("scgrid: duplicate backend %s", a)
		}
		seen[a] = true
	}
	cfg = cfg.withDefaults()
	g := &Grid{cfg: cfg, pool: newPool(addrs, cfg)}
	g.pool.start()
	return g, nil
}

// Close stops the health prober. Open sessions keep their slots; callers
// should conclude them first.
func (g *Grid) Close() { g.pool.close() }

// Stats snapshots per-backend counters and pool-level admission stats.
func (g *Grid) Stats() GridStats { return g.pool.stats() }

// Healthy returns the number of currently healthy backends.
func (g *Grid) Healthy() int { return g.pool.stats().Healthy }

// ProbeNow runs one synchronous probe round over every backend,
// regardless of schedule — startup convergence and tests.
func (g *Grid) ProbeNow() {
	now := time.Now()
	for _, b := range g.pool.backends {
		b.mu.Lock()
		b.nextProbe = now
		b.mu.Unlock()
	}
	g.pool.probeRound()
}

// Session opens a grid session on the shared session engine. A Header
// with a Token is resumable and pinned to its rendezvous backend (use
// scserve.NewToken for a fresh one); a Header without a Token is one-shot
// and placed least-loaded. h.Resume must not be set — resumption is the
// engine's business.
func (g *Grid) Session(h scserve.Header) (*scserve.RetrySession, error) {
	return scserve.NewRetrySession(h, g.cfg.RetryConfig, &placement{g: g, token: h.Token}, g.seq.Add(1))
}

// Check is the one-shot convenience: it opens a session with h, streams
// the whole stream, and returns the verdict. A shed session returns the
// busy verdict (see Verdict.Busy) with a nil error.
func (g *Grid) Check(h scserve.Header, stream descriptor.Stream) (scserve.Verdict, error) {
	s, err := g.Session(h)
	if err != nil {
		return scserve.Verdict{}, err
	}
	defer s.Close()
	if err := s.Send(stream...); err != nil {
		return scserve.Verdict{}, err
	}
	return s.Finish()
}

// placement is a grid session's scserve.Placement: which backend its
// connections go to, the in-flight slot it holds there, and the
// per-backend counters its events feed.
type placement struct {
	g      *Grid
	token  string
	b      *backend // backend holding this session's slot
	landed bool     // the session reached some backend at least once
}

// Connect places the session's next connection:
//
//   - tokened sessions target their rendezvous backend — the same one
//     after a blip (resume), a different live one after a death
//     (failover, fresh start);
//   - one-shot sessions re-place least-loaded whenever their backend died
//     or gave its slot back.
//
// Slot accounting moves with the session: reconnecting to the same
// backend keeps the held slot, moving releases it and re-admits on the
// new backend (which may queue and shed).
func (p *placement) Connect(resuming bool) (net.Conn, bool, error) {
	want := p.b
	if want != nil && !want.isHealthy() {
		want = nil
	}
	if p.token != "" && !(resuming && want != nil) {
		// Sticky resume keeps a checkpointed session on its backend even
		// while it drains: draining backends keep serving resumes so
		// in-flight sessions finish where their bytes are. Otherwise
		// re-pin (nil when nothing is healthy: wait in admission).
		want = p.g.pool.pinned(p.token)
	}
	moved := want == nil || want != p.b
	if moved {
		p.Release()
		b, err := p.g.pool.acquire(p.token, p.g.cfg.QueueWait)
		if err != nil {
			return nil, false, shedVerdict(err).Err()
		}
		p.b = b
		if p.landed {
			b.failovers.Add(1)
			p.g.pool.logf("scgrid: session %.8s… failing over to %s (replay from byte 0)", p.token, b.addr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.g.cfg.Timeout)
	conn, err := p.g.cfg.Dial(ctx, p.b.addr)
	cancel()
	if err != nil {
		// A refused dial is the fastest death signal there is: eject so
		// the next attempt (and every other session) places elsewhere.
		p.g.pool.eject(p.b, err)
		p.Release()
		return nil, false, err
	}
	return conn, moved, nil
}

// Observe feeds the session's events into the backend counters and the
// pool's drain and slot bookkeeping.
func (p *placement) Observe(ev scserve.Event, v scserve.Verdict) {
	switch ev {
	case scserve.EventOpened:
		p.b.sessions.Add(1)
		p.landed = true
	case scserve.EventResumed:
		p.b.resumes.Add(1)
	case scserve.EventRedirect:
		p.g.pool.drainRedirects.Add(1)
	case scserve.EventFailed:
		if p.b != nil {
			p.b.errors.Add(1)
		}
	case scserve.EventVerdict:
		switch {
		case v.Draining():
			// The backend is draining, not overloaded: mark it so
			// placement avoids it and give the slot back.
			p.g.pool.setDraining(p.b, true)
			p.Release()
		case v.Busy():
			// At capacity: one-shot sessions give their slot back to
			// re-place least-loaded; tokened ones stay pinned.
			if p.token == "" {
				p.Release()
			}
		case v.Code == scserve.VerdictAccept:
			p.b.accepts.Add(1)
		case v.Code == scserve.VerdictReject:
			p.b.rejects.Add(1)
		}
	}
}

// Release gives the session's slot back.
func (p *placement) Release() {
	if p.b != nil {
		p.b.release()
		p.b = nil
	}
}
