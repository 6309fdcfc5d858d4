// Package faultnet wraps net.Conn with deterministic, seedable fault
// injection for exercising network-facing code under adversity: partial
// writes, short reads, latency spikes, stalls, and mid-stream connection
// resets. It exists to test the scserve fault-tolerance contract — a
// faulty link may cost a session retries or a clean error, but never a
// wrong verdict — without needing a real misbehaving network.
//
// Faults are drawn from a seeded PRNG, so a failing chaos run replays
// exactly from its seed. The wrapper never corrupts data: bytes that are
// delivered are delivered intact and in order (TCP semantics); faults
// only fragment, delay, or cut the stream.
package faultnet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config selects which faults a wrapped connection injects. The zero
// value injects nothing (a transparent wrapper).
type Config struct {
	// Seed fixes the fault schedule; 0 seeds from the wall clock.
	Seed int64

	// WriteChunk, when positive, caps each underlying write at a random
	// size in [1, WriteChunk] — every Write becomes a sequence of partial
	// writes.
	WriteChunk int
	// ReadChunk, when positive, caps each Read at a random size in
	// [1, ReadChunk] — the peer's frames arrive fragmented.
	ReadChunk int

	// LatencyProb is the per-operation probability of sleeping a random
	// duration in [0, Latency] before proceeding.
	LatencyProb float64
	Latency     time.Duration

	// StallProb is the per-operation probability of a long stall of
	// Stall before proceeding; deadlines fire during the stall (the
	// sleep is bounded, not cancelable).
	StallProb float64
	Stall     time.Duration

	// ResetAfterBytes, when positive, hard-closes the connection once
	// that many total bytes (reads + writes) have crossed it — a
	// deterministic mid-stream reset.
	ResetAfterBytes int64
	// ResetProb is the per-operation probability of hard-closing the
	// connection before the operation — a random reset.
	ResetProb float64
}

// Stats counts the faults a connection (or a Dialer's connections)
// actually injected.
type Stats struct {
	PartialWrites atomic.Int64
	ShortReads    atomic.Int64
	Latencies     atomic.Int64
	Stalls        atomic.Int64
	Resets        atomic.Int64
}

// String renders the counters on one line.
func (s *Stats) String() string {
	return fmt.Sprintf("faultnet: %d partial writes, %d short reads, %d latencies, %d stalls, %d resets",
		s.PartialWrites.Load(), s.ShortReads.Load(), s.Latencies.Load(), s.Stalls.Load(), s.Resets.Load())
}

// errReset is returned by operations on a connection the harness reset.
var errReset = fmt.Errorf("faultnet: connection reset by fault injection")

// Conn wraps a net.Conn with fault injection. Safe for the usual
// net.Conn discipline (one reader + one writer concurrently).
type Conn struct {
	net.Conn
	cfg   Config
	stats *Stats

	mu    sync.Mutex // guards rng and bytes
	rng   *rand.Rand
	bytes int64

	reset atomic.Bool
}

// Wrap returns conn with faults per cfg, counting them into stats (which
// may be nil, and may be shared across connections).
func Wrap(conn net.Conn, cfg Config, stats *Stats) *Conn {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Conn{Conn: conn, cfg: cfg, stats: stats, rng: rand.New(rand.NewSource(seed))}
}

// Stats returns the connection's fault counters.
func (c *Conn) Stats() *Stats { return c.stats }

// chance draws a biased coin under the rng lock.
func (c *Conn) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	ok := c.rng.Float64() < p
	c.mu.Unlock()
	return ok
}

// chunk draws a random operation size in [1, max].
func (c *Conn) chunk(n, max int) int {
	if max <= 0 || n <= 1 {
		return n
	}
	c.mu.Lock()
	k := 1 + c.rng.Intn(max)
	c.mu.Unlock()
	if k > n {
		k = n
	}
	return k
}

// sleep draws a random duration in [0, max].
func (c *Conn) sleep(max time.Duration) {
	if max <= 0 {
		return
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(max) + 1))
	c.mu.Unlock()
	time.Sleep(d)
}

// doReset hard-closes the connection.
func (c *Conn) doReset() error {
	if c.reset.CompareAndSwap(false, true) {
		c.stats.Resets.Add(1)
		c.Conn.Close()
	}
	return errReset
}

// preOp runs the per-operation faults (latency, stall, reset) and
// reports whether the operation may proceed.
func (c *Conn) preOp() error {
	if c.reset.Load() {
		return errReset
	}
	if c.chance(c.cfg.LatencyProb) {
		c.stats.Latencies.Add(1)
		c.sleep(c.cfg.Latency)
	}
	if c.chance(c.cfg.StallProb) && c.cfg.Stall > 0 {
		c.stats.Stalls.Add(1)
		time.Sleep(c.cfg.Stall)
	}
	if c.chance(c.cfg.ResetProb) {
		return c.doReset()
	}
	return nil
}

// account adds transferred bytes and fires the deterministic reset once
// the budget is crossed. The bytes already transferred are reported to
// the caller; the next operation fails.
func (c *Conn) account(n int) {
	if c.cfg.ResetAfterBytes <= 0 {
		return
	}
	c.mu.Lock()
	c.bytes += int64(n)
	over := c.bytes >= c.cfg.ResetAfterBytes
	c.mu.Unlock()
	if over {
		c.doReset()
	}
}

func (c *Conn) Read(b []byte) (int, error) {
	if err := c.preOp(); err != nil {
		return 0, err
	}
	if k := c.chunk(len(b), c.cfg.ReadChunk); k < len(b) {
		c.stats.ShortReads.Add(1)
		b = b[:k]
	}
	n, err := c.Conn.Read(b)
	c.account(n)
	if err != nil && c.reset.Load() {
		err = errReset
	}
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	written := 0
	for written < len(b) {
		if err := c.preOp(); err != nil {
			return written, err
		}
		k := c.chunk(len(b)-written, c.cfg.WriteChunk)
		if k < len(b)-written {
			c.stats.PartialWrites.Add(1)
		}
		n, err := c.Conn.Write(b[written : written+k])
		written += n
		c.account(n)
		if err != nil {
			if c.reset.Load() {
				err = errReset
			}
			return written, err
		}
	}
	return written, nil
}

func (c *Conn) Close() error {
	if c.reset.Load() {
		return nil // already closed by a reset
	}
	return c.Conn.Close()
}

// Dialer produces fault-injected connections, for use as a client
// transport hook (scserve.RetryConfig.Dial). Each connection draws
// its own fault schedule from the dialer's seed sequence, and all
// connections share the dialer's Stats.
type Dialer struct {
	cfg   Config
	stats *Stats

	mu   sync.Mutex
	seed int64
}

// NewDialer returns a dialer injecting faults per cfg into every
// connection it makes.
func NewDialer(cfg Config) *Dialer {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Dialer{cfg: cfg, stats: &Stats{}, seed: seed}
}

// Stats returns the counters aggregated across all dialed connections.
func (d *Dialer) Stats() *Stats { return d.stats }

// Dial connects to addr over TCP with DialContext's faults. The
// signature matches scserve.RetryConfig.Dial, the transport hook of the
// session engine and the scgrid pool.
func (d *Dialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	return d.DialContext(ctx, "tcp", addr)
}

// DialContext connects to addr and wraps the connection, injecting the
// dialer's latency and stall faults into the dial itself as
// context-cancellable sleeps: a health probe dialing through a faulty
// link observes the latency spike but its deadline still fires through
// it. The signature matches net.Dialer.DialContext; a dial-time reset
// fault surfaces as a refused connection.
func (d *Dialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.seed++
	rng := rand.New(rand.NewSource(d.seed))
	cfg := d.cfg
	d.mu.Unlock()

	if cfg.LatencyProb > 0 && rng.Float64() < cfg.LatencyProb && cfg.Latency > 0 {
		d.stats.Latencies.Add(1)
		if err := sleepCtx(ctx, time.Duration(rng.Int63n(int64(cfg.Latency)+1))); err != nil {
			return nil, err
		}
	}
	if cfg.StallProb > 0 && rng.Float64() < cfg.StallProb && cfg.Stall > 0 {
		d.stats.Stalls.Add(1)
		if err := sleepCtx(ctx, cfg.Stall); err != nil {
			return nil, err
		}
	}
	if cfg.ResetProb > 0 && rng.Float64() < cfg.ResetProb {
		d.stats.Resets.Add(1)
		return nil, fmt.Errorf("faultnet: dial %s: %w", addr, errReset)
	}
	var nd net.Dialer
	conn, err := nd.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return d.wrap(conn), nil
}

// sleepCtx sleeps d or returns ctx.Err() as soon as ctx is done — the
// cancellable half of the fault clock, so a bounded probe is not held
// hostage by an injected spike.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wrap applies the next fault schedule in the dialer's sequence.
func (d *Dialer) wrap(conn net.Conn) *Conn {
	d.mu.Lock()
	d.seed++
	cfg := d.cfg
	cfg.Seed = d.seed
	d.mu.Unlock()
	return Wrap(conn, cfg, d.stats)
}

// WrapConn wraps an already-established connection with the dialer's
// fault config and stats (for in-memory pipes in tests).
func (d *Dialer) WrapConn(conn net.Conn) net.Conn { return d.wrap(conn) }
