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

// An older peer connecting to this server must learn exactly which versions
// disagreed: the server answers the bad preamble with its own preamble (so
// the old client's own handshake check names both versions) and closes.
// Version 3 is the generation that still shipped fixed-size Bloom filters and
// version 5 the last one without the journal head in the envelope header;
// there is no reader for either, so each is refused like any other.
func TestHandshakeMismatchOldClientAgainstNewServer(t *testing.T) {
	srv := NewServer(backend.NewSharded(0, 1))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	for _, old := range []byte{1, 3, 4, 5} {
		nc, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		if _, err := nc.Write(append([]byte(Magic), old)); err != nil {
			t.Fatalf("write preamble: %v", err)
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply := make([]byte, len(Magic)+1)
		if _, err := io.ReadFull(nc, reply); err != nil {
			t.Fatalf("v%d: read server preamble: %v", old, err)
		}
		// The answer is the server's own preamble; the old client's
		// handshake check turns it into "peer speaks protocol version 6,
		// want <old>": the magic matched, the versions differ.
		if string(reply) != string(handshakeBytes()) || reply[len(Magic)] == old {
			t.Fatalf("v%d: server answered %q, want its own preamble %q", old, reply, handshakeBytes())
		}
		if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("v%d: connection after mismatch: err = %v, want EOF", old, err)
		}
	}
	// And this side of the same check, when the peer is the old one.
	for _, old := range []byte{3, 4, 5} {
		err = checkHandshake(append([]byte(Magic), old))
		want := fmt.Sprintf("version %d, want %d", old, ProtoVersion)
		if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d preamble: err = %v, want ErrProtocol naming %s", old, err, want)
		}
	}
}

// A version-2 client connecting to a version-1 server must surface the old
// server's rejection verbatim: v1 answered a bad handshake with a v1 error
// frame, which the v2 client detects and decodes instead of reporting a
// bare bad-magic error.
func TestHandshakeMismatchNewClientAgainstOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		pre := make([]byte, len(Magic)+1)
		if _, err := io.ReadFull(nc, pre); err != nil {
			return
		}
		// A v1 server's rejection: [respErr][4-byte length][error string].
		msg := wire.AppendString(nil, "rpc: protocol error: peer speaks protocol version 2, want 1")
		f := append([]byte{respErr, 0, 0, 0, 0}, msg...)
		binary.BigEndian.PutUint32(f[1:5], uint32(len(msg)))
		nc.Write(f)
	}()

	_, err = Dial(ln.Addr().String())
	if err == nil {
		t.Fatal("dial against a v1 server succeeded")
	}
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "peer rejected the handshake") ||
		!strings.Contains(err.Error(), "version 2, want 1") {
		t.Fatalf("dial error = %v, want the decoded v1 rejection", err)
	}
}

// Fire-and-forget ingest writes must coalesce: many marks and reports ship
// as one envelope frame when a synchronous operation flushes them, not one
// frame each.
func TestIngestWritesCoalesceIntoOneEnvelope(t *testing.T) {
	t.Cleanup(SetTimersForTest(TestTimers{Keepalive: time.Hour, Flush: time.Hour})) // no keepalives, no timer flush
	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)

	base := srv.Requests()
	for i := 0; i < 100; i++ {
		cli.MarkSampled(fmt.Sprintf("t%d", i), "symptom")
	}
	if err := cli.Ping(); err != nil { // barrier flushes the envelope first
		t.Fatalf("ping: %v", err)
	}
	delta := srv.Requests() - base
	if delta != 2 { // one envelope + the ping
		t.Fatalf("100 marks + ping took %d frames, want 2", delta)
	}
	for _, id := range []string{"t0", "t99"} {
		if !b.Sampled(id) {
			t.Fatalf("mark %s not applied after barrier", id)
		}
	}
}

// QueryMany over a large batch must split into pipelined chunk frames on the
// one connection —
// strictly fewer round-trip waves than one frame per ID, pinned by counting
// the server's request frames rather than timing anything.
func TestQueryManyPipelinesChunkFrames(t *testing.T) {
	t.Cleanup(SetTimersForTest(TestTimers{Keepalive: time.Hour, Flush: time.Hour}))
	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)

	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
	}
	base := srv.Requests()
	res := cli.QueryMany(ids)
	if len(res) != len(ids) {
		t.Fatalf("QueryMany returned %d results for %d ids", len(res), len(ids))
	}
	if err := cli.Err(); err != nil {
		t.Fatalf("client error: %v", err)
	}
	delta := srv.Requests() - base
	_, chunks := fanChunks(len(ids))
	if want := int64(chunks); delta != want {
		t.Fatalf("QueryMany(64) took %d frames, want %d chunk frames", delta, want)
	}
	if delta <= 1 || delta >= int64(len(ids)) {
		t.Fatalf("chunk frame count %d outside (1, %d)", delta, len(ids))
	}
}

// The server must execute pipelined requests from one client concurrently:
// two queries dispatched to the worker pool are both in flight before
// either is allowed to finish.
func TestServerDispatchesQueriesConcurrently(t *testing.T) {
	t.Cleanup(SetTimersForTest(TestTimers{Keepalive: time.Hour, Flush: time.Hour}))
	arrived := make(chan struct{}, 4)
	release := make(chan struct{})
	testHookQueryDispatch = func(byte) {
		arrived <- struct{}{}
		<-release
	}
	t.Cleanup(func() { testHookQueryDispatch = nil })

	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli.Query(fmt.Sprintf("t%d", i))
		}(i)
	}
	// Both queries reach the worker pool while neither has answered; a
	// lock-step server would deadlock here (and fail the test timeout).
	<-arrived
	<-arrived
	close(release)
	wg.Wait()
	if got := srv.MaxInFlight(); got < 2 {
		t.Fatalf("MaxInFlight = %d, want >= 2", got)
	}
	if err := cli.Err(); err != nil {
		t.Fatalf("client error: %v", err)
	}
}

// An idle connection must survive far past the in-flight call
// timeout: the read deadline is armed only while requests are in flight and
// cleared when the connection goes idle, so idleness is never mistaken for
// a stalled server.
func TestIdleConnectionOutlivesCallTimeout(t *testing.T) {
	t.Cleanup(SetTimersForTest(TestTimers{Call: 150 * time.Millisecond, Keepalive: time.Hour, Flush: time.Hour}))
	b := backend.NewSharded(0, 1)
	cli, _ := startLoopback(t, b)

	if err := cli.Ping(); err != nil { // arms and then clears the deadline
		t.Fatalf("first ping: %v", err)
	}
	time.Sleep(500 * time.Millisecond) // idle well past callTimeout
	if err := cli.Err(); err != nil {
		t.Fatalf("idle connection latched a spurious error: %v", err)
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping after idling: %v", err)
	}
}

// Keepalive pings must flow on an idle connection (noticing silent peer death
// between requests) without latching errors on a healthy idle client.
func TestKeepalivePingsIdleConnections(t *testing.T) {
	t.Cleanup(SetTimersForTest(TestTimers{Call: 200 * time.Millisecond, Keepalive: 50 * time.Millisecond, Flush: time.Hour}))
	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)

	base := srv.Requests()
	time.Sleep(400 * time.Millisecond) // several keepalive intervals
	if err := cli.Err(); err != nil {
		t.Fatalf("keepalive latched an error on a healthy client: %v", err)
	}
	if delta := srv.Requests() - base; delta == 0 {
		t.Fatal("no keepalive pings reached the server")
	}
}

// With the server gone, the redial is refused and the breaker fails calls
// fast: writes drop (the error is latched) and queries answer zero values
// without waiting out the retry deadline on the write barrier.
func TestDeadServerFailsFast(t *testing.T) {
	t.Cleanup(SetTimersForTest(TestTimers{Keepalive: time.Hour, Flush: time.Hour}))
	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	srv.Close()
	start := time.Now()
	cli.MarkSampled("x", "y") // coalesces, then drops at flush
	if res := cli.Query("x"); res.Kind != backend.Miss {
		t.Fatalf("query against dead server: %+v", res)
	}
	if d := time.Since(start); d > RetryDeadline/2 {
		t.Fatalf("calls against a refusing server took %v; the breaker should fail them fast", d)
	}
	if cli.Err() == nil {
		t.Fatal("server death did not latch")
	}
}
