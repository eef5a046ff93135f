package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// mkEnvelope builds a raw sequenced envelope payload carrying one mark op,
// stamped with the sender's journal head.
func mkEnvelope(session, seq, head uint64, traceID string) []byte {
	var hdr [envelopeHeaderBytes]byte
	binary.BigEndian.PutUint64(hdr[:8], session)
	binary.BigEndian.PutUint64(hdr[8:16], seq)
	binary.BigEndian.PutUint64(hdr[16:], head)
	return append(hdr[:], wire.AppendMarkOp(nil, traceID, "r")...)
}

// The server's per-session window must acknowledge duplicates without
// re-applying, answer busy to sequence gaps, and treat each session
// independently (a session the server does not know opens its window at the
// journal head its first envelope carries — the rule that lets a restarted
// server pick up a mid-life client).
func TestEnvelopeDedupWindow(t *testing.T) {
	s := NewServer(backend.NewSharded(0, 1))
	if resp := s.applyEnvelope(nil, 1, mkEnvelope(9, 1, 1, "a")); resp[0] != respOK {
		t.Fatalf("first envelope answered 0x%02x, want respOK", resp[0])
	}
	if resp := s.applyEnvelope(nil, 2, mkEnvelope(9, 1, 1, "a")); resp[0] != respOK {
		t.Fatalf("duplicate answered 0x%02x, want respOK", resp[0])
	}
	if got := s.DedupHits(); got != 1 {
		t.Fatalf("DedupHits = %d, want 1", got)
	}
	if resp := s.applyEnvelope(nil, 3, mkEnvelope(9, 3, 2, "c")); resp[0] != respBusy {
		t.Fatalf("gap answered 0x%02x, want respBusy", resp[0])
	}
	if resp := s.applyEnvelope(nil, 4, mkEnvelope(9, 2, 2, "b")); resp[0] != respOK {
		t.Fatalf("gap-filling envelope answered 0x%02x, want respOK", resp[0])
	}
	if resp := s.applyEnvelope(nil, 5, mkEnvelope(9, 3, 3, "c")); resp[0] != respOK {
		t.Fatalf("replay after gap fill answered 0x%02x, want respOK", resp[0])
	}
	// A different session starting mid-stream (its first 39 envelopes were
	// acknowledged by an earlier server process) opens its own window at
	// its head.
	if resp := s.applyEnvelope(nil, 6, mkEnvelope(11, 40, 40, "d")); resp[0] != respOK {
		t.Fatalf("fresh session's first envelope answered 0x%02x, want respOK", resp[0])
	}
	if got := s.IngestSessions(); got != 2 {
		t.Fatalf("IngestSessions = %d, want 2", got)
	}
	for i, env := range [][]byte{
		mkEnvelope(0, 1, 1, "e"),  // zero session
		mkEnvelope(13, 0, 1, "e"), // zero sequence
		mkEnvelope(13, 1, 0, "e"), // zero head
		mkEnvelope(13, 1, 2, "e"), // head past the sequence it rides on
		{1, 2, 3},                 // shorter than the header
	} {
		if resp := s.applyEnvelope(nil, uint64(7+i), env); resp[0] != respErr {
			t.Fatalf("malformed envelope %d answered 0x%02x, want respErr", i, resp[0])
		}
	}
}

// TestShedHeadReplayIsApplied pins the shedding race at the window's edge: a
// fresh session's head envelope is shed (busy) while its pipelined successor
// is accepted. The successor must wait for the head — the window opens at
// the head it carries, not at the first sequence that arrives — so the
// head's replay applies instead of being acknowledged as a duplicate.
func TestShedHeadReplayIsApplied(t *testing.T) {
	b := backend.NewSharded(0, 1)
	s := NewServer(b)
	if resp := s.applyEnvelope(nil, 1, mkEnvelope(21, 2, 1, "second")); resp[0] != respBusy {
		t.Fatalf("successor of a missing head answered 0x%02x, want respBusy", resp[0])
	}
	if resp := s.applyEnvelope(nil, 2, mkEnvelope(21, 1, 1, "first")); resp[0] != respOK {
		t.Fatalf("replayed head answered 0x%02x, want respOK", resp[0])
	}
	if resp := s.applyEnvelope(nil, 3, mkEnvelope(21, 2, 1, "second")); resp[0] != respOK {
		t.Fatalf("replayed successor answered 0x%02x, want respOK", resp[0])
	}
	for _, id := range []string{"first", "second"} {
		if !b.Sampled(id) {
			t.Fatalf("mark %s acknowledged but never applied", id)
		}
	}
	if got := s.DedupHits(); got != 0 {
		t.Fatalf("DedupHits = %d, want 0: nothing was sent twice after applying", got)
	}
}

// An overloaded ingest queue must shed with busy frames, and the client's
// journal must absorb the shedding: every envelope still applies exactly
// once, with no error latched.
func TestIngestShedsAndClientReplays(t *testing.T) {
	overrideFaultTimers(t)
	restore := SetIngestQueueDepthForTest(0) // every concurrent envelope sheds
	t.Cleanup(restore)
	// Hold the apply worker on its first envelope until the reader has shed
	// one behind it, so shedding happens on every run rather than only when
	// the worker falls behind by chance.
	release := make(chan struct{})
	var hold sync.Once
	testHookIngestApply = func() { hold.Do(func() { <-release }) }
	t.Cleanup(func() { testHookIngestApply = nil })

	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)
	// Under a zero-depth queue, throughput degrades to roughly one envelope
	// per busy-delay round — that is the backpressure working. Size the
	// burst so the drain fits the shortened retry deadline with margin.
	const n = 60
	for i := 0; i < n; i++ {
		cli.MarkSampled(fmt.Sprintf("t%d", i), "r")
		// Seal each mark into its own envelope so many are in flight at once.
		cli.mu.Lock()
		cli.flushOpsLocked()
		cli.mu.Unlock()
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Shed() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := cli.Ping(); err != nil { // barrier: journal must drain
		t.Fatalf("ping barrier: %v", err)
	}
	for i := 0; i < n; i++ {
		if !b.Sampled(fmt.Sprintf("t%d", i)) {
			t.Fatalf("mark t%d lost under shedding", i)
		}
	}
	if srv.Shed() == 0 {
		t.Fatalf("an unbuffered ingest queue shed nothing under %d pipelined envelopes", n)
	}
	if err := cli.Err(); err != nil {
		t.Fatalf("shedding latched an error: %v", err)
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
