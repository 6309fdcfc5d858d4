package scserve

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync/atomic"
	"time"

	"scverify/internal/descriptor"
)

// RetryConfig is the session policy of the fault-tolerant session engine
// (RetrySession), whichever placement its connections use: RetryClient's
// single address or an scgrid pool. The zero value gets sane defaults.
type RetryConfig struct {
	// Timeout is the per-operation deadline (dial, frame read, frame
	// write). Default 10s.
	Timeout time.Duration
	// MaxAttempts bounds connection attempts per operation: each
	// SendBytes/Finish call may redial up to this many times before
	// giving up. Default 5.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the exponential backoff between
	// attempts: attempt i sleeps a jittered min(BaseDelay<<i, MaxDelay).
	// Defaults 50ms and 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the backoff jitter deterministic for tests; 0 seeds from
	// the wall clock. Each session offsets it by its sequence number within
	// its placement, so the n-th session of a seeded placement always
	// draws the same jitter and no two of its sessions draw alike.
	Seed int64
	// MaxBuffer caps the local replay buffer. A session keeps its whole
	// stream until it would outgrow the cap, then drops acked bytes; an
	// unacked tail beyond the cap fails the session cleanly (the
	// degrade-to-error invariant) rather than buffering without bound.
	// Default 16 MiB.
	MaxBuffer int
	// PollEvery is the number of streamed bytes between ack polls while
	// sending. Default 32 KiB.
	PollEvery int
	// Dial overrides the transport, e.g. to route through a faultnet
	// link. Defaults to a net.Dialer over TCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// WithDefaults fills every zero field with its default.
func (c RetryConfig) WithDefaults() RetryConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.MaxBuffer <= 0 {
		c.MaxBuffer = 16 << 20
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 32 << 10
	}
	if c.Dial == nil {
		c.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return c
}

// Event is something a RetrySession reports to its Placement.
type Event int

const (
	// EventOpened: a hello, fresh or resuming, opened a session on a new
	// connection.
	EventOpened Event = iota
	// EventResumed: the server resumed the session from its checkpoint.
	EventResumed
	// EventVerdict: the server answered Finish with a verdict, busy ones
	// included.
	EventVerdict
	// EventRedirect: the session follows a draining verdict elsewhere,
	// at no attempt or backoff cost.
	EventRedirect
	// EventFailed: the session ended without a verdict: attempt budget
	// spent, buffer limit hit, or a replay it can no longer make.
	EventFailed
)

// Placement decides where a RetrySession's connections go. RetryClient
// places every connection on one address; scgrid places them across a
// pool of backends.
type Placement interface {
	// Connect dials the session's next connection. resuming reports that
	// the session holds a checkpoint on the server it last reached; moved
	// reports that the new connection reaches a different server, which
	// holds none of the session's bytes. An error wrapping a busy
	// *VerdictError (admission shed) concludes the session with that
	// verdict.
	Connect(resuming bool) (conn net.Conn, moved bool, err error)
	// Observe reports one event on the current connection; v is set for
	// EventVerdict.
	Observe(ev Event, v Verdict)
	// Release gives back whatever the placement holds for the session.
	Release()
}

// RetryClient is the fault-tolerant client for one server address: the
// session engine's single-address Placement. It holds no connection or
// session state of its own, so one RetryClient may serve any number of
// concurrent sessions.
type RetryClient struct {
	addr string
	cfg  RetryConfig
	seq  atomic.Int64 // sessions opened, numbering their jitter streams
}

// NewRetryClient returns a client for the server at addr. No connection
// is made until a session's first operation.
func NewRetryClient(addr string, cfg RetryConfig) *RetryClient {
	return &RetryClient{addr: addr, cfg: cfg.WithDefaults()}
}

// Session opens a fault-tolerant session. h.Token may be left empty (a
// random token is drawn); h.Resume must not be set — resumption is the
// RetrySession's business.
func (rc *RetryClient) Session(h Header) (*RetrySession, error) {
	if h.Token == "" {
		h.Token = NewToken()
	}
	return NewRetrySession(h, rc.cfg, rc, rc.seq.Add(1))
}

// Check is the one-shot convenience: it opens a fault-tolerant session
// with h, streams the whole stream, and returns the verdict.
func (rc *RetryClient) Check(h Header, stream descriptor.Stream) (Verdict, error) {
	s, err := rc.Session(h)
	if err != nil {
		return Verdict{}, err
	}
	defer s.Close()
	if err := s.Send(stream...); err != nil {
		return Verdict{}, err
	}
	return s.Finish()
}

// Connect dials the client's one address.
func (rc *RetryClient) Connect(bool) (net.Conn, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rc.cfg.Timeout)
	defer cancel()
	conn, err := rc.cfg.Dial(ctx, rc.addr)
	return conn, false, err
}

// Observe and Release are no-ops: one address needs no bookkeeping.
func (*RetryClient) Observe(Event, Verdict) {}
func (*RetryClient) Release()               {}

// RetrySession is one logical checking session that survives connection
// loss, server restarts and (through a pool placement) backend death. It
// buffers its stream and replays it into the server's checkpoint after a
// reconnect, or from byte 0 on a server that holds none of it. Every
// verdict it returns is a server checker's verdict over exactly the
// bytes the session streamed: faults surface as errors, never as wrong
// answers. Not goroutine-safe.
//
//scvet:single-goroutine
type RetrySession struct {
	cfg RetryConfig
	hdr Header
	p   Placement
	rng *mrand.Rand

	buf     []byte // stream bytes from offset start to total
	start   int64  // offset of buf[0]: 0 until the buffer outgrows MaxBuffer
	base    int64  // newest acked checkpoint; a resume replays from here
	baseSym int    // symbol index at base
	total   int64  // total stream bytes accepted from the caller

	c      *Client  // nil between connections
	sess   *Session // nil between connections
	sent   int64    // offset streamed on the current connection
	unpoll int      // bytes sent since the last ack poll

	shed *Verdict // set when admission control shed the session
	done bool
}

// NewRetrySession opens a session on the engine with placement p. It is
// the constructor placements build on; most callers want
// RetryClient.Session or scgrid's Grid.Session. seq numbers the session
// among those p opens and offsets the jitter seed, so sessions sharing
// one seeded config don't back off in lockstep. h.Resume must not be set.
func NewRetrySession(h Header, cfg RetryConfig, p Placement, seq int64) (*RetrySession, error) {
	if h.Resume {
		return nil, errors.New("scserve: the session engine manages resumption itself; do not set Header.Resume")
	}
	cfg = cfg.WithDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	seed += seq * 0x9E3779B9
	return &RetrySession{cfg: cfg, hdr: h, p: p, rng: mrand.New(mrand.NewSource(seed))}, nil
}

// Acked returns the highest server-acked byte offset: a resume on the
// same server replays from there.
func (s *RetrySession) Acked() int64 { return s.base }

// Close abandons the session: the connection is dropped and the
// placement released. A finished session's Close is a no-op.
func (s *RetrySession) Close() {
	s.drop()
	s.p.Release()
	s.done = true
}

// drop discards the current connection.
func (s *RetrySession) drop() {
	if s.c != nil {
		s.c.Close()
	}
	s.c, s.sess = nil, nil
}

// delay is the jittered exponential delay for the given attempt: uniform
// over [d/2, d] so a fleet of sessions kicked off by the same fault
// doesn't reconnect in lockstep.
func (s *RetrySession) delay(attempt int) time.Duration {
	d := s.cfg.BaseDelay << attempt
	if d <= 0 || d > s.cfg.MaxDelay {
		d = s.cfg.MaxDelay
	}
	return d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
}

func (s *RetrySession) backoff(attempt int) { time.Sleep(s.delay(attempt)) }

var (
	// errResumeMiss: the server lost the checkpoint; the stream restarts
	// from byte 0 without spending an attempt.
	errResumeMiss = errors.New("scserve: resume checkpoint gone; restarting from byte 0")
	// errTrimmed: a server needs bytes the buffer already dropped. No
	// retry can fix that, so the session ends with this error.
	errTrimmed = errors.New("scserve: stream must replay from byte 0 but its head was trimmed from the replay buffer")
)

// rewind restarts the stream from byte 0 for a server holding none of it.
func (s *RetrySession) rewind() error {
	if s.start > 0 {
		return fmt.Errorf("%w (bytes before offset %d)", errTrimmed, s.start)
	}
	s.base, s.baseSym = 0, 0
	return nil
}

// poll flushes what was sent and folds the server's newest checkpoint
// into the replay base.
func (s *RetrySession) poll() error {
	s.unpoll = 0
	if err := s.sess.Flush(); err != nil {
		return err
	}
	if err := s.sess.Poll(); err != nil {
		return err
	}
	if sym, off := s.sess.Acked(); off > s.base && off <= s.total {
		s.base, s.baseSym = off, sym
	}
	return nil
}

// ensure establishes a connection with an open session positioned at
// s.sent: a fresh hello when nothing is checkpointed, otherwise a resume
// from the server's checkpoint.
func (s *RetrySession) ensure() error {
	if s.sess != nil {
		return nil
	}
	conn, moved, err := s.p.Connect(s.base > 0)
	if err != nil {
		return err
	}
	if moved {
		if err := s.rewind(); err != nil {
			conn.Close()
			return err
		}
	}
	s.c = NewClient(conn, s.cfg.Timeout)
	h := s.hdr
	if s.base > 0 {
		h.Resume = true
		h.AckSymbol, h.AckOffset = s.baseSym, s.base
	}
	sess, err := s.c.Session(h)
	if err != nil {
		s.drop()
		return err
	}
	s.sess = sess
	s.p.Observe(EventOpened, Verdict{})
	if h.Resume {
		if v, ok := sess.Early(); ok {
			if v.ResumeMiss() {
				s.drop()
				if err := s.rewind(); err != nil {
					return err
				}
				return errResumeMiss
			}
			// The replayed verdict of an already-finished session:
			// Finish delivers it.
			s.sent = s.total
			return nil
		}
		sym, off := sess.Acked()
		if off < s.start || off > s.total {
			s.drop()
			return fmt.Errorf("scserve: resume ack at offset %d outside buffered range [%d, %d]", off, s.start, s.total)
		}
		s.base, s.baseSym = off, sym
		s.p.Observe(EventResumed, Verdict{})
	}
	s.sent = s.base
	return nil
}

// push streams the buffer's unsent tail on the current connection. Chunks
// are capped at the poll cadence so acks (and an early verdict) are
// observed while streaming, not just at the end.
func (s *RetrySession) push() error {
	chunk := maxChunk
	if s.cfg.PollEvery < chunk {
		chunk = s.cfg.PollEvery
	}
	for s.sent < s.total {
		if _, ok := s.sess.Early(); ok {
			// Early verdict (rejection or busy): stop streaming; Finish
			// delivers it.
			s.sent = s.total
			return nil
		}
		tail := s.buf[s.sent-s.start:]
		n := len(tail)
		if n > chunk {
			n = chunk
		}
		if err := s.sess.SendBytes(tail[:n]); err != nil {
			return err
		}
		s.sent += int64(n)
		s.unpoll += n
		if s.unpoll >= s.cfg.PollEvery {
			if err := s.poll(); err != nil {
				return err
			}
		}
	}
	return nil
}

// SendBytes appends raw descriptor wire bytes to the logical stream and
// streams them (with any unsent tail) with retries. The bytes need not
// align with symbol boundaries.
func (s *RetrySession) SendBytes(raw []byte) error {
	if s.done {
		return errors.New("scserve: send after Finish")
	}
	if s.shed != nil {
		return nil // concluded already; Finish reports the verdict
	}
	if len(s.buf)+len(raw) > s.cfg.MaxBuffer {
		// Make room: fold in the newest acks, then drop acked bytes.
		if s.sess != nil && s.poll() != nil {
			s.drop()
		}
		s.buf = s.buf[s.base-s.start:]
		s.start = s.base
		if len(s.buf)+len(raw) > s.cfg.MaxBuffer {
			_, err := s.fail(true, fmt.Errorf("scserve: unacked stream tail exceeds replay buffer limit %d", s.cfg.MaxBuffer))
			return err
		}
	}
	s.buf = append(s.buf, raw...)
	s.total += int64(len(raw))
	_, err := s.drive(false)
	return err
}

// Send encodes and streams the given symbols.
func (s *RetrySession) Send(syms ...descriptor.Symbol) error {
	return s.SendBytes(descriptor.Marshal(syms))
}

// maxDrainRedirects bounds the free (no-backoff, no-attempt) redirects a
// session takes on draining verdicts before degrading to the ordinary
// busy backoff path — the escape hatch when every reachable backend is
// draining at once.
const maxDrainRedirects = 4

// Finish concludes the logical session and returns the verdict, retrying
// transport failures (resuming and replaying as needed) and busy
// rejections (with backoff, restarting the session). A draining verdict
// is a redirect, not a failure: the connection is dropped and the
// session re-placed immediately — no backoff, no attempt consumed. A
// session shed by its placement's admission control returns the busy
// verdict with a nil error. Every other verdict returned was produced by
// a server's checker over exactly the bytes this session streamed.
func (s *RetrySession) Finish() (Verdict, error) {
	if s.done {
		return Verdict{}, errors.New("scserve: session already finished")
	}
	if s.shed != nil {
		return s.conclude(*s.shed)
	}
	return s.drive(true)
}

// drive is the one retry loop: each attempt (re)connects, streams the
// unsent tail and, when finish is set, ends the stream and reads the
// verdict.
func (s *RetrySession) drive(finish bool) (Verdict, error) {
	var lastErr error
	redirects := 0
	for attempt, free := 0, false; attempt < s.cfg.MaxAttempts; attempt++ {
		if attempt > 0 && !free {
			s.backoff(attempt - 1)
		}
		free = false
		err := s.ensure()
		if err == nil {
			err = s.push()
		}
		var v Verdict
		if err == nil && finish {
			v, err = s.sess.Finish()
		}
		var ve *VerdictError
		switch {
		case errors.As(err, &ve) && ve.Verdict.Busy():
			// Shed by the placement's admission control: the busy verdict
			// is the session's answer.
			s.shed = &ve.Verdict
			s.p.Release()
			if finish {
				return s.conclude(ve.Verdict)
			}
			return Verdict{}, nil
		case errors.Is(err, errResumeMiss):
			lastErr, free = err, true
			attempt--
		case errors.Is(err, errTrimmed):
			return s.fail(true, err)
		case err != nil:
			lastErr = err
			s.drop()
		case !finish:
			return Verdict{}, nil
		default:
			s.p.Observe(EventVerdict, v)
			if !v.Busy() {
				return s.conclude(v)
			}
			lastErr = v.Err()
			s.drop()
			if v.Draining() && redirects < maxDrainRedirects {
				// Redirect-not-failure: re-place immediately (through a
				// pool or proxy the fresh connection lands on an admitting
				// backend) and give the attempt back.
				redirects++
				s.p.Observe(EventRedirect, v)
				free = true
				attempt--
			}
		}
	}
	op := "send"
	if finish {
		op = "session"
	}
	return s.fail(finish, fmt.Errorf("scserve: %s failed after %d attempts: %w", op, s.cfg.MaxAttempts, lastErr))
}

// conclude ends the session with its verdict.
func (s *RetrySession) conclude(v Verdict) (Verdict, error) {
	s.Close()
	return v, nil
}

// fail gives up: the placement is released and, when final, the session
// ends without a verdict.
func (s *RetrySession) fail(final bool, err error) (Verdict, error) {
	s.drop()
	if final {
		s.p.Observe(EventFailed, Verdict{})
		s.done = true
	}
	s.p.Release()
	return Verdict{}, err
}
