package scserve

import (
	"testing"
	"time"

	"scverify/internal/descriptor"
)

// These tests pin the drain half of the live-operations contract: a
// draining server refuses fresh hellos with the draining verdict (a
// clean busy-family redirect, never a dropped connection), keeps serving
// resumes and in-flight sessions to their correct verdicts, replays
// stored verdicts, and rejoins on Undrain — all without ever touching
// the listener.

func TestDrainRefusesFreshServesInFlight(t *testing.T) {
	srv, addr := startServer(t, Config{AckInterval: 8})
	stream, rejectIdx := SyntheticReject(60)
	wire := descriptor.Marshal(stream)

	// An in-flight session opened before the drain...
	c1 := dialT(t, addr)
	sess, err := c1.Session(tokenHeader("inflight"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendBytes(wire[:len(wire)/2]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	waitForAck(t, sess)

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Drain() did not set drain mode")
	}

	// ...runs to its correct verdict.
	if err := sess.SendBytes(wire[len(wire)/2:]); err != nil {
		t.Fatal(err)
	}
	v, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != VerdictReject || v.Symbol != rejectIdx {
		t.Fatalf("in-flight verdict through drain: %v, want reject at symbol %d", v, rejectIdx)
	}

	// A fresh hello gets the draining verdict — busy-family, so legacy
	// retry loops back off instead of failing.
	c2 := dialT(t, addr)
	dv, err := c2.Check(SyntheticHeader(), SyntheticAccept(9))
	if err != nil {
		t.Fatal(err)
	}
	if !dv.Draining() || !dv.Busy() {
		t.Fatalf("fresh hello while draining: %v, want draining verdict", dv)
	}

	// Undrain: fresh sessions are admitted again.
	srv.Undrain()
	c3 := dialT(t, addr)
	av, err := c3.Check(SyntheticHeader(), SyntheticAccept(9))
	if err != nil || av.Code != VerdictAccept {
		t.Fatalf("fresh hello after undrain: %v, %v", av, err)
	}

	st := srv.Stats()
	if st.Draining {
		t.Fatal("stats still report draining after Undrain")
	}
	if st.Drains != 1 || st.DrainRejects != 1 {
		t.Fatalf("drains=%d drainRejects=%d, want 1 and 1", st.Drains, st.DrainRejects)
	}
}

func TestDrainServesResumesAndReplays(t *testing.T) {
	srv, addr := startServer(t, Config{AckInterval: 8})
	stream, rejectIdx := SyntheticReject(100)
	wire := descriptor.Marshal(stream)

	// Checkpoint half a session, lose the connection.
	c1 := dialT(t, addr)
	sess, err := c1.Session(tokenHeader("drain-resume"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendBytes(wire[:offsetOf(stream, 50)]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	waitForAck(t, sess)
	ackSym, ackOff := sess.Acked()

	// Complete a second tokened session whose verdict we will replay.
	c2 := dialT(t, addr)
	if v, err := c2.Check(tokenHeader("drain-replay"), SyntheticAccept(32)); err != nil || v.Code != VerdictAccept {
		t.Fatalf("pre-drain session: %v, %v", v, err)
	}

	c1.Close()
	srv.Drain()

	// The checkpointed session resumes through the drain and finishes with
	// the exact verdict.
	c3 := dialT(t, addr)
	h := tokenHeader("drain-resume")
	h.Resume, h.AckSymbol, h.AckOffset = true, ackSym, ackOff
	sess3, err := c3.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	_, roff := sess3.Acked()
	if roff <= 0 || roff >= int64(len(wire)) {
		t.Fatalf("resume-through-drain ack offset %d outside (0, %d)", roff, len(wire))
	}
	if err := sess3.SendBytes(wire[roff:]); err != nil {
		t.Fatal(err)
	}
	v, err := sess3.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != VerdictReject || v.Symbol != rejectIdx || v.Offset != offsetOf(stream, rejectIdx) {
		t.Fatalf("resumed-through-drain verdict %v, want reject at symbol %d byte %d", v, rejectIdx, offsetOf(stream, rejectIdx))
	}

	// The finished session's verdict replays through the drain too: a
	// client that missed its answer must not be stranded by the restart.
	c4 := dialT(t, addr)
	hr := tokenHeader("drain-replay")
	hr.Resume = true
	sess4, err := c4.Session(hr)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := sess4.Finish()
	if err != nil || rv.Code != VerdictAccept {
		t.Fatalf("verdict replay through drain: %v, %v", rv, err)
	}

	// Both the checkpoint resume and the verdict replay count as resumes.
	if srv.Stats().Resumes != 2 {
		t.Fatalf("resumes = %d, want 2", srv.Stats().Resumes)
	}
	srv.Undrain()
}

// TestDrainAdminFrame drives the drain switch over the wire: Client.Drain
// flips the server and returns stats carrying the Draining bit, Undrain
// lifts it, and a mid-session Drain call on the same client is refused
// locally instead of corrupting the session framing.
func TestDrainAdminFrame(t *testing.T) {
	srv, addr := startServer(t, Config{})

	admin := dialT(t, addr)
	st, err := admin.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("Drain() stats reply does not carry the Draining bit")
	}
	if !srv.Draining() {
		t.Fatal("drain admin frame did not flip the server")
	}

	c := dialT(t, addr)
	v, err := c.Check(SyntheticHeader(), SyntheticAccept(9))
	if err != nil || !v.Draining() {
		t.Fatalf("fresh hello after wire drain: %v, %v", v, err)
	}

	st, err = admin.Undrain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Draining || srv.Draining() {
		t.Fatal("Undrain() did not lift drain mode")
	}
	v, err = c.Check(SyntheticHeader(), SyntheticAccept(9))
	if err != nil || v.Code != VerdictAccept {
		t.Fatalf("fresh hello after wire undrain: %v, %v", v, err)
	}

	// Drain mid-session is a local error: the admin frame may not be
	// spliced into an open session's byte stream.
	sess, err := c.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err == nil {
		t.Fatal("Drain() inside an open session did not error")
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatalf("session after refused mid-session drain: %v", err)
	}
}

// TestDrainMalformedFrame: a drain frame with a bad payload is a protocol
// error, not a state change.
func TestDrainMalformedFrame(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dialT(t, addr)
	if err := writeFrame(c.bw, frameDrain, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(c.br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameVerdict {
		t.Fatalf("malformed drain answered with frame %#x, want verdict", typ)
	}
	v, err := parseVerdict(payload)
	if err != nil || v.Code != VerdictProtocolError {
		t.Fatalf("malformed drain verdict: %+v, %v", v, err)
	}
	if srv.Draining() {
		t.Fatal("malformed drain frame changed drain state")
	}
}

// TestDrainUnderRetryClient: a RetryClient pointed at a single draining
// server does not hot-loop — after the bounded redirect budget it falls
// back to plain busy backoff and eventually surfaces the busy error.
func TestDrainUnderRetryClient(t *testing.T) {
	srv, addr := startServer(t, Config{})
	srv.Drain()
	rc := NewRetryClient(addr, RetryConfig{
		Timeout: 5 * time.Second, MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 1,
	})
	start := time.Now()
	_, err := rc.Check(SyntheticHeader(), SyntheticAccept(9))
	if err == nil {
		t.Fatal("check against a fully-draining fleet of one succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("draining single server took %s to fail; redirect budget not bounded?", elapsed)
	}
	// The server answered every attempt with the clean draining verdict.
	if st := srv.Stats(); st.DrainRejects < int64(2) {
		t.Fatalf("drain rejects = %d, want >= 2 (every attempt answered cleanly)", st.DrainRejects)
	}
}
