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
// version 6 the last one with busy frames and the journal head in the
// envelope header; there is no reader for either, so each is refused like
// any other.
func TestHandshakeMismatchOldClientAgainstNewServer(t *testing.T) {
	srv := NewServer(backend.NewSharded(0, 1))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	for _, old := range []byte{1, 3, 4, 5, 6} {
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
		// handshake check turns it into "peer speaks protocol version 7,
		// want <old>": the magic matched, the versions differ.
		if string(reply) != string(handshakeBytes()) || reply[len(Magic)] == old {
			t.Fatalf("v%d: server answered %q, want its own preamble %q", old, reply, handshakeBytes())
		}
		if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("v%d: connection after mismatch: err = %v, want EOF", old, err)
		}
	}
	// And this side of the same check, when the peer is the old one.
	for _, old := range []byte{3, 4, 5, 6} {
		err = checkHandshake(append([]byte(Magic), old))
		want := fmt.Sprintf("version %d, want %d", old, ProtoVersion)
		if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d preamble: err = %v, want ErrProtocol naming %s", old, err, want)
		}
	}
}

// This client connecting to an older server must surface the disagreement
// verbatim. A version-1 server answered a bad handshake with a v1 error
// frame, which the client detects and decodes instead of reporting a bare
// bad-magic error; a version-6 server answers with its own preamble, which
// the client's handshake check names.
func TestHandshakeMismatchNewClientAgainstOldServer(t *testing.T) {
	v1Reject := wire.AppendString(nil, "rpc: protocol error: peer speaks protocol version 2, want 1")
	v1Frame := append([]byte{respErr, 0, 0, 0, 0}, v1Reject...)
	binary.BigEndian.PutUint32(v1Frame[1:5], uint32(len(v1Reject)))
	for _, old := range []struct {
		answer []byte
		want   []string
	}{
		{v1Frame, []string{"peer rejected the handshake", "version 2, want 1"}},
		{append([]byte(Magic), 6), []string{fmt.Sprintf("version 6, want %d", ProtoVersion)}},
	} {
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
			nc.Write(old.answer)
		}()

		_, err = Dial(ln.Addr().String())
		if err == nil {
			t.Fatalf("dial against a server answering %q succeeded", old.answer)
		}
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("dial error = %v, want ErrProtocol", err)
		}
		for _, w := range old.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("dial error = %v, want it to name %q", err, w)
			}
		}
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

// A batch call is one request frame however large the batch: the backend's
// query pool is the one fan-out, so the client never splits a batch. A
// request type retired with the client-side split (0x0C, the approximate
// side of a search) is answered as unknown, and the caller sees why.
func TestBatchCallsTakeOneFrame(t *testing.T) {
	t.Cleanup(SetTimersForTest(TestTimers{Keepalive: time.Hour, Flush: time.Hour}))
	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)

	ids := make([]string, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
	}
	for _, c := range []struct {
		name string
		do   func()
	}{
		{"QueryMany(64)", func() { cli.QueryMany(ids[:64]) }},
		{"BatchQuery(64)", func() { cli.BatchQuery(ids[:64]) }},
		{"FindTraces(100 candidates)", func() { cli.FindTraces(backend.Filter{Candidates: ids}) }},
	} {
		base := srv.Requests()
		c.do()
		if err := cli.Err(); err != nil {
			t.Fatalf("%s: client error: %v", c.name, err)
		}
		if delta := srv.Requests() - base; delta != 1 {
			t.Fatalf("%s took %d frames, want 1", c.name, delta)
		}
	}

	err := cli.call(0x0C, respFound,
		func(dst []byte) []byte { return appendFilter(dst, backend.Filter{Candidates: ids}) }, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown request type 0x0c") {
		t.Fatalf("retired request 0x0C: err = %v, want the unknown-type error", err)
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
