package scserve

import (
	"errors"
	"time"
)

// ReplayStart exposes the offset of the replay buffer's first byte, so
// external tests can tell that a session has trimmed its head.
func ReplayStart(s *RetrySession) int64 { return s.start }

// BackoffDelays draws the session's next n backoff delays, one per
// attempt, without sleeping them.
func BackoffDelays(s *RetrySession, n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = s.delay(i)
	}
	return ds
}

// AwaitAck nudges the session's live connection with empty frames and
// polls until a server-acked checkpoint moves the replay base.
func AwaitAck(s *RetrySession, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.base == 0 {
		if s.sess == nil {
			return errors.New("no live connection to await an ack on")
		}
		if time.Now().After(deadline) {
			return errors.New("no checkpoint acked")
		}
		if err := s.sess.SendBytes(nil); err != nil {
			return err
		}
		if err := s.poll(); err != nil {
			return err
		}
	}
	return nil
}
