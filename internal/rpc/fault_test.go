package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/wire"
)

// overrideFaultTimers shortens the retry/redial machinery for failure tests.
func overrideFaultTimers(t *testing.T) {
	t.Helper()
	restore := SetTimersForTest(TestTimers{
		Keepalive:     time.Hour,
		Flush:         time.Hour,
		RetryDeadline: 5 * time.Second,
		RedialBase:    5 * time.Millisecond,
		RedialMax:     40 * time.Millisecond,
		RedialDial:    time.Second,
		RedialTick:    2 * time.Millisecond,
	})
	t.Cleanup(restore)
}

// A server restart on the same address must be survivable end to end: the
// client redials in the background, ingest captured during the outage stays
// journaled and replays on reconnect, and synchronous calls ride the retry
// loop instead of failing.
func TestRedialReplaysJournaledIngest(t *testing.T) {
	overrideFaultTimers(t)
	b1 := backend.NewSharded(0, 1)
	srv1 := NewServer(b1)
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })

	cli.MarkSampled("before", "symptom")
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if !b1.Sampled("before") {
		t.Fatal("mark before the outage not applied")
	}

	srv1.Close()
	// Capture during the outage: the envelope journals client-side. The
	// explicit flush stands in for the interval flush timer (silenced above).
	cli.MarkSampled("during", "symptom")
	cli.mu.Lock()
	cli.flushOpsLocked()
	cli.mu.Unlock()
	if n := cli.journalLen(); n == 0 {
		t.Fatal("outage-time envelope was not journaled")
	}

	b2 := backend.NewSharded(0, 1)
	srv2 := NewServer(b2)
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })

	// A synchronous call must ride the retry loop through the redial.
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping across restart: %v", err)
	}
	if !b2.Sampled("during") {
		t.Fatal("journaled envelope did not replay to the restarted server")
	}
	if cli.Redials() == 0 {
		t.Fatal("no redial was counted")
	}
	if err := cli.Err(); err != nil {
		t.Fatalf("a survived outage latched an error: %v", err)
	}
}

// mkEnvelope builds a raw sequenced envelope payload carrying one mark op.
func mkEnvelope(session, seq uint64, traceID string) []byte {
	var hdr [envelopeHeaderBytes]byte
	binary.BigEndian.PutUint64(hdr[:8], session)
	binary.BigEndian.PutUint64(hdr[8:], seq)
	return append(hdr[:], wire.AppendMarkOp(nil, traceID, "r")...)
}

// The server's per-session window must acknowledge duplicates without
// re-applying, apply any sequence past the window (including one past a
// sequence the client dropped itself), and treat each session independently
// (a session the server does not know opens its window at 0 — the rule that
// lets a restarted server pick up a mid-life client).
func TestEnvelopeDedupWindow(t *testing.T) {
	b := backend.NewSharded(0, 1)
	s := NewServer(b)
	if resp := s.applyEnvelope(nil, 1, mkEnvelope(9, 1, "a")); resp[0] != respOK {
		t.Fatalf("first envelope answered 0x%02x, want respOK", resp[0])
	}
	if resp := s.applyEnvelope(nil, 2, mkEnvelope(9, 1, "a")); resp[0] != respOK {
		t.Fatalf("duplicate answered 0x%02x, want respOK", resp[0])
	}
	if got := s.DedupHits(); got != 1 {
		t.Fatalf("DedupHits = %d, want 1", got)
	}
	if resp := s.applyEnvelope(nil, 3, mkEnvelope(9, 2, "b")); resp[0] != respOK {
		t.Fatalf("next envelope answered 0x%02x, want respOK", resp[0])
	}
	// The client dropped sequence 3 (an oversized frame): 4 applies, and a
	// late 3 is acknowledged without being applied.
	if resp := s.applyEnvelope(nil, 4, mkEnvelope(9, 4, "d")); resp[0] != respOK {
		t.Fatalf("envelope past a dropped sequence answered 0x%02x, want respOK", resp[0])
	}
	if resp := s.applyEnvelope(nil, 5, mkEnvelope(9, 3, "c")); resp[0] != respOK {
		t.Fatalf("late lower sequence answered 0x%02x, want respOK", resp[0])
	}
	for id, want := range map[string]bool{"a": true, "b": true, "c": false, "d": true} {
		if b.Sampled(id) != want {
			t.Fatalf("mark %s applied = %v, want %v", id, !want, want)
		}
	}
	if got := s.DedupHits(); got != 2 {
		t.Fatalf("DedupHits = %d, want 2", got)
	}
	// A different session starting mid-stream (its first 39 envelopes were
	// acknowledged by an earlier server process) opens its own window.
	if resp := s.applyEnvelope(nil, 6, mkEnvelope(11, 40, "e")); resp[0] != respOK || !b.Sampled("e") {
		t.Fatalf("fresh session's first envelope answered 0x%02x, want it applied", resp[0])
	}
	if got := s.IngestSessions(); got != 2 {
		t.Fatalf("IngestSessions = %d, want 2", got)
	}
	for i, env := range [][]byte{
		mkEnvelope(0, 1, "f"),  // zero session
		mkEnvelope(13, 0, "f"), // zero sequence
		{1, 2, 3},              // shorter than the header
	} {
		if resp := s.applyEnvelope(nil, uint64(7+i), env); resp[0] != respErr {
			t.Fatalf("malformed envelope %d answered 0x%02x, want respErr", i, resp[0])
		}
	}
}

// stalledServer completes the handshake on every connection it accepts and
// then never reads again, so the client's writes back up in TCP buffers.
func stalledServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			pre := make([]byte, len(Magic)+1)
			if _, err := io.ReadFull(nc, pre); err == nil {
				nc.Write(handshakeBytes())
			}
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
	}
}

// A server that stops reading must slow only the journal pump, never the
// application's ingest calls: 27 MB of marks, under the journal bound, all
// return promptly and nothing is dropped.
func TestStalledServerDoesNotBlockIngest(t *testing.T) {
	overrideFaultTimers(t)
	addr, stop := stalledServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		stop() // the client's Close then sees the connection die and gives up
		cli.Close()
	})

	id := strings.Repeat("x", 60<<10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 450; i++ {
			cli.MarkSampled(fmt.Sprintf("%s%d", id, i), "r")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MarkSampled blocked behind a server that stopped reading")
	}
	if n := cli.DroppedEnvelopes(); n != 0 {
		t.Fatalf("DroppedEnvelopes = %d, want 0 under the journal bound", n)
	}
}

// Close must report ingest it could not deliver: with the server gone, a
// mark captured before Close is lost, and both Close and Err say so.
func TestCloseReportsUndeliveredIngest(t *testing.T) {
	overrideFaultTimers(t)
	b := backend.NewSharded(0, 1)
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	srv.Close()
	cli.MarkSampled("lost", "r")
	cerr := cli.Close()
	if !errors.Is(cerr, ErrUnavailable) || !strings.Contains(cerr.Error(), "1 ingest envelopes") {
		t.Fatalf("Close = %v, want ErrUnavailable naming 1 unacknowledged envelope", cerr)
	}
	if err := cli.Err(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Err after a lossy Close = %v, want the loss", err)
	}
	if b.Sampled("lost") {
		t.Fatal("the mark was applied after all")
	}
}

// A handler panic must cost the panicking request an error frame, not the
// process or the connection's siblings.
func TestServerRecoversHandlerPanic(t *testing.T) {
	overrideFaultTimers(t)
	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)
	testHookQueryDispatch = func(byte) { panic("injected") }
	t.Cleanup(func() { testHookQueryDispatch = nil })
	if res := cli.Query("x"); res.Kind != backend.Miss {
		t.Fatalf("panicking query answered %+v, want zero-value Miss", res)
	}
	testHookQueryDispatch = nil
	if srv.Panics() == 0 {
		t.Fatal("panic was not counted")
	}
	// The connection survives: a later request on it answers.
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping after panic: %v", err)
	}
}

// Shutdown must drain: in-flight requests finish and their responses reach
// the client before the connections close.
func TestShutdownDrainsInFlight(t *testing.T) {
	overrideFaultTimers(t)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	testHookQueryDispatch = func(byte) {
		entered <- struct{}{}
		<-release
	}
	t.Cleanup(func() { testHookQueryDispatch = nil })

	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)
	got := make(chan backend.QueryResult, 1)
	go func() { got <- cli.Query("x") }()
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(5 * time.Second) }()
	// The drain must wait for the in-flight query.
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while a query was still executing", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-got
	if res.Kind != backend.Miss {
		t.Fatalf("drained query answered %+v", res)
	}
	// The connection is now legitimately down (the server drained away), so Err
	// reports the retryable breaker state — but nothing sticky: the drained
	// query must have completed without recording a failure.
	if err := cli.Err(); err != nil && !errors.Is(err, ErrUnavailable) {
		t.Fatalf("drain latched a sticky error: %v", err)
	}
}

// Shutdown past its timeout must force-close rather than hang.
func TestShutdownTimesOutOnStuckHandler(t *testing.T) {
	overrideFaultTimers(t)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	testHookQueryDispatch = func(byte) {
		entered <- struct{}{}
		<-release
	}
	t.Cleanup(func() { testHookQueryDispatch = nil })
	defer close(release)

	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)
	go cli.Query("x")
	<-entered
	err := srv.Shutdown(50 * time.Millisecond)
	if err == nil {
		t.Fatal("Shutdown with a stuck handler returned nil")
	}
}
