package sctest

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/history"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
)

// Adjudicator opens the sessions remote checks run on: a
// *scserve.RetryClient for one scserve address, or a *scgrid.Grid for a
// pool of backends. Either way each session runs on scserve's one
// fault-tolerant session engine, so a delivered verdict is a service
// checker's verdict over exactly the bytes streamed.
type Adjudicator interface {
	Session(scserve.Header) (*scserve.RetrySession, error)
}

// RemoteRun returns a Config.Check function that adjudicates runs through
// a instead of an in-process checker: the observer still runs locally
// alongside the recorded run, but its descriptor stream is shipped over
// one tokened session and the service's verdict decides the run.
// Rejections carry the service's positioned verdict (as a
// *scserve.VerdictError, busy sheds included); failures that produced no
// verdict are errors prefixed "sctest: remote", so they are not mistaken
// for genuine SC violations. Safe for concurrent campaign workers.
func RemoteRun(a Adjudicator, opts ...CheckOpt) func(*protocol.Run, registry.Target) error {
	return func(run *protocol.Run, tgt registry.Target) error {
		// Size the observer's ID pool the same way CheckRun does: the
		// session header must announce the bandwidth bound k up front.
		sizing := observer.New(run.Protocol, tgt.Generator(), observer.Config{PoolSize: tgt.PoolSize}, nil)
		h := scserve.Header{K: sizing.K(), Params: run.Protocol.Params()}
		return adjudicate(a, h, opts, func(emit func(descriptor.Symbol) error) error {
			obs := observer.New(run.Protocol, tgt.Generator(), observer.Config{PoolSize: tgt.PoolSize}, emit)
			for _, step := range run.Steps {
				if err := obs.Step(step.Transition); err != nil {
					return err
				}
			}
			return obs.Finish()
		})
	}
}

// RemoteHistory adjudicates lowerings through a: the lowering still
// happens locally, but its descriptor stream is shipped over one tokened
// session and the service's verdict decides the history. Errors follow
// RemoteRun's conventions.
func RemoteHistory(a Adjudicator, opts ...CheckOpt) HistoryChecker {
	return func(l *history.Lowering) error {
		return adjudicate(a, historyHeader(l), opts, func(emit func(descriptor.Symbol) error) error {
			for _, sym := range l.Stream {
				if err := emit(sym); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// adjudicate opens one tokened session with h, streams what produce emits
// in frame-sized batches, and returns the verdict as an error (nil on
// accept).
func adjudicate(a Adjudicator, h scserve.Header, opts []CheckOpt, produce func(emit func(descriptor.Symbol) error) error) error {
	h.Token = scserve.NewToken()
	for _, o := range opts {
		o(&h)
	}
	sess, err := a.Session(h)
	if err != nil {
		return fmt.Errorf("sctest: remote: %w", err)
	}
	defer sess.Close()
	var buf []byte
	send := func() error {
		err := sess.SendBytes(buf)
		buf = buf[:0]
		if err != nil {
			return fmt.Errorf("sctest: remote: %w", err)
		}
		return nil
	}
	err = produce(func(sym descriptor.Symbol) error {
		buf = descriptor.AppendBinary(buf, sym)
		if len(buf) >= 16<<10 {
			return send()
		}
		return nil
	})
	if err == nil && len(buf) > 0 {
		err = send()
	}
	if err != nil {
		return err
	}
	v, err := sess.Finish()
	if err != nil {
		return fmt.Errorf("sctest: remote: %w", err)
	}
	return v.Err()
}

// RemoteFlags are the command-line options that pick a remote
// adjudicator: -server, -grid, -server-timeout and -server-retries.
type RemoteFlags struct {
	server, grid *string
	timeout      *time.Duration
	retries      *int
	g            *scgrid.Grid // set by Open in -grid mode
}

// AddRemoteFlags registers the remote-adjudication flags on fs.
func AddRemoteFlags(fs *flag.FlagSet) *RemoteFlags {
	return &RemoteFlags{
		server:  fs.String("server", "", "scserve address; adjudicate remotely instead of in-process"),
		grid:    fs.String("grid", "", "comma-separated scserve backends; adjudicate through the scgrid dispatcher"),
		timeout: fs.Duration("server-timeout", 30*time.Second, "per-operation I/O timeout for -server/-grid mode"),
		retries: fs.Int("server-retries", 5, "connection attempts per remote operation before giving up"),
	}
}

// Remote reports whether -server or -grid was given.
func (f *RemoteFlags) Remote() bool { return *f.server != "" || *f.grid != "" }

// Open returns the adjudicator the flags name, or nil when neither
// -server nor -grid was given. Naming both is a usage error. In -grid
// mode it starts a grid; Close stops it.
func (f *RemoteFlags) Open() (Adjudicator, error) {
	policy := scserve.RetryConfig{Timeout: *f.timeout, MaxAttempts: *f.retries}
	switch {
	case *f.server != "" && *f.grid != "":
		return nil, errors.New("-server and -grid are mutually exclusive")
	case *f.server != "":
		return scserve.NewRetryClient(*f.server, policy), nil
	case *f.grid != "":
		g, err := scgrid.New(strings.Split(*f.grid, ","), scgrid.Config{RetryConfig: policy})
		if err != nil {
			return nil, fmt.Errorf("grid: %w", err)
		}
		f.g = g
		return g, nil
	}
	return nil, nil
}

// Close stops the grid Open started, if any.
func (f *RemoteFlags) Close() {
	if f.g != nil {
		f.g.Close()
	}
}

// Backends returns the grid's per-backend counters in -grid mode (nil
// otherwise), to show how a campaign sharded.
func (f *RemoteFlags) Backends() []scgrid.BackendStats {
	if f.g == nil {
		return nil
	}
	return f.g.Stats().Backends
}

// String names the adjudicator for campaign banners.
func (f *RemoteFlags) String() string {
	switch {
	case *f.server != "":
		return "scserve at " + *f.server
	case *f.grid != "":
		return fmt.Sprintf("scgrid over %d backends", len(strings.Split(*f.grid, ",")))
	}
	return "in-process checker"
}
