package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Server-side read deadlines. A fresh connection must complete the
// handshake promptly (port scanners and TCP health checks that connect and
// send nothing would otherwise pin a goroutine each until Server.Close);
// an established connection may idle indefinitely between requests, but
// once a frame header arrives its payload must follow promptly, and the
// peer must drain responses promptly.
const (
	handshakeTimeout = 10 * time.Second
	frameBodyTimeout = 2 * time.Minute
)

// maxIngestSessions bounds the per-session dedup window map. Sessions are
// per-client-lifetime, so thousands of live entries mean thousands of live
// clients; past the bound the least-recently-used session is evicted (its
// client, if still alive, reopens its window at sequence 0).
const maxIngestSessions = 4096

// ingestSession is one client session's exactly-once window: the highest
// sequence applied, 0 for a new session. Envelopes at or below it
// acknowledge without re-applying; any later one applies. mu serializes the
// check-and-apply, so a replayed duplicate racing its original on a second
// connection cannot double-apply.
type ingestSession struct {
	mu       sync.Mutex
	last     uint64
	lastUsed atomic.Int64 // unix nanos, for LRU eviction
}

// testHookQueryDispatch, when set, observes every request frame dispatched
// to the concurrent query pool (as opposed to handled inline on the reader).
// Tests use it to pin the concurrency structure deterministically.
var testHookQueryDispatch func(typ byte)

// Server serves the backend protocol on accepted connections: ingest
// (sequenced envelopes of coalesced pattern/Bloom/params reports and
// sampling marks), the query surface, stats and durable flush.
//
// Each connection runs one reader goroutine. It applies each ingest
// envelope itself, answers it, and only then reads the next frame, so a
// connection's writes land exactly as a serial client would have landed
// them, the acknowledgement the client's write barrier waits for means
// applied, and a client that outruns the apply is slowed by TCP flow
// control. Queries dispatch to a bounded server-wide worker pool and may
// answer out of order — a slow cold-storage lookup does not block the pings
// and envelopes pipelined behind it. Response frames are written atomically
// under a per-connection write lock.
//
// The server holds only a *backend.Backend — agents and collectors live on
// the client side of the wire, exactly as the paper's topology places them
// (per-host agents and collectors, one central backend).
type Server struct {
	backend *backend.Backend
	sem     chan struct{} // bounds concurrently executing query requests

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	smu      sync.Mutex
	sessions map[uint64]*ingestSession

	bytesIn     atomic.Int64
	bytesOut    atomic.Int64
	requests    atomic.Int64
	inflight    atomic.Int64
	maxInflight atomic.Int64
	dedupHits   atomic.Int64
	panics      atomic.Int64

	// Self-observability: per-op service-time histograms (indexed by request
	// type byte), the query lane's queue-wait histogram, and the slow-op
	// ledger.
	tel        *telemetry.Registry
	slow       *telemetry.Ledger
	opHists    [reqTypeLimit]*telemetry.Histogram
	opOther    *telemetry.Histogram
	queryWait  *telemetry.Histogram
	opObserver func(OpObservation)
}

// reqTypeLimit bounds the request-type byte space the per-op histogram
// table covers.
const reqTypeLimit = 0x10

// OpObservation describes one served request frame for an external
// observer: the operation name, how long the frame waited for a query
// worker (zero for an envelope, which the reader applies itself), its
// service (handler) time, and the request payload size.
type OpObservation struct {
	Op        string
	QueueWait time.Duration
	Service   time.Duration
	Bytes     int
}

// SetOpObserver installs a callback invoked after every envelope and query
// is served (mintd's -self-trace hook). Must be called before Listen/ServeConn;
// it is not synchronized with serving.
func (s *Server) SetOpObserver(fn func(OpObservation)) { s.opObserver = fn }

// Telemetry returns the server's histogram registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// SlowOps returns the server's slow-op ledger.
func (s *Server) SlowOps() *telemetry.Ledger { return s.slow }

// opName names a request type for metrics and self-trace spans.
func opName(typ byte) string {
	switch typ {
	case reqPing:
		return "ping"
	case reqEnvelope:
		return "envelope"
	case reqQuery:
		return "query"
	case reqQueryMany:
		return "query_many"
	case reqBatchAnalyze:
		return "batch_analyze"
	case reqFindTraces:
		return "find_traces"
	case reqFindAnalyze:
		return "find_analyze"
	case reqStats:
		return "stats"
	case reqFlush:
		return "flush"
	default:
		return "other"
	}
}

// opHist returns the service-time histogram for a request type.
func (s *Server) opHist(typ byte) *telemetry.Histogram {
	if int(typ) < len(s.opHists) && s.opHists[typ] != nil {
		return s.opHists[typ]
	}
	return s.opOther
}

// observeOp records one served frame into its service-time histogram, the
// slow-op ledger and the optional observer.
func (s *Server) observeOp(typ byte, queueWait, service time.Duration, bytes int) {
	s.opHist(typ).Observe(service)
	if s.slow.Exceeds(service) {
		s.slow.Record("rpc-"+opName(typ), "", service, int64(bytes), -1)
	}
	if s.opObserver != nil {
		s.opObserver(OpObservation{Op: opName(typ), QueueWait: queueWait, Service: service, Bytes: bytes})
	}
}

// NewServer creates a server over a backend. Call Listen (or ServeConn) to
// start handling traffic.
func NewServer(b *backend.Backend) *Server {
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	s := &Server{
		backend:  b,
		sem:      make(chan struct{}, workers),
		conns:    map[net.Conn]struct{}{},
		sessions: map[uint64]*ingestSession{},
		tel:      telemetry.NewRegistry(),
		slow:     telemetry.NewLedger(0, backend.DefaultSlowOpThreshold),
	}
	const opHelp = "RPC per-op service time (handler execution, excluding queue wait)."
	for _, typ := range []byte{
		reqPing, reqEnvelope, reqQuery, reqQueryMany,
		reqBatchAnalyze, reqFindTraces, reqFindAnalyze,
		reqStats, reqFlush,
	} {
		s.opHists[typ] = s.tel.Histogram("mint_rpc_op_seconds", `op="`+opName(typ)+`"`, opHelp)
	}
	s.opOther = s.tel.Histogram("mint_rpc_op_seconds", `op="other"`, opHelp)
	s.queryWait = s.tel.Histogram("mint_rpc_queue_wait_seconds", `lane="query"`,
		"Time a query frame waited for a worker before its handler ran.")
	return s
}

// session returns the dedup window for one client session, creating it at
// sequence 0 and evicting the least-recently-used entry past the bound.
func (s *Server) session(id uint64) *ingestSession {
	now := time.Now().UnixNano()
	s.smu.Lock()
	defer s.smu.Unlock()
	se, ok := s.sessions[id]
	if !ok {
		if len(s.sessions) >= maxIngestSessions {
			var oldID uint64
			oldAt := int64(1<<63 - 1)
			for sid, cand := range s.sessions {
				if at := cand.lastUsed.Load(); at < oldAt {
					oldID, oldAt = sid, at
				}
			}
			delete(s.sessions, oldID)
		}
		se = &ingestSession{}
		s.sessions[id] = se
	}
	se.lastUsed.Store(now)
	return se
}

// Listen starts a TCP listener on addr and serves it on a background
// goroutine, returning the bound address (useful with a ":0" port).
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("rpc: server closed")
	}
	s.lns = append(s.lns, ln) // Listen may be called per interface; Close closes all
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr(), nil
}

// acceptLoop accepts connections until the listener closes. Transient
// Accept errors (fd exhaustion under load) back off and retry — a daemon
// that silently stops accepting while /healthz still answers ok would be
// strictly worse than a slow one.
func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed by Close: stop accepting
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.ServeConn(conn)
		}()
	}
}

// track registers a live connection; false means the server is closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the listener and closes every live connection, then waits for
// the per-connection goroutines to finish. The backend is left untouched —
// flushing or closing its durable store is the owner's call.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	lns := s.lns
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: it stops accepting connections,
// lets in-flight requests finish and their responses go out, then closes
// the remaining connections. Readers blocked waiting for a next frame are
// nudged off their blocking read so idle connections do not hold the drain
// open. Past the timeout, still-live connections are closed forcibly and an
// error is returned. The backend is left untouched, exactly as with Close —
// the caller flushes the WAL after the drain, so acknowledged ingest that
// raced the shutdown is on disk before the process exits.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	lns := s.lns
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	nudge := time.NewTicker(20 * time.Millisecond)
	defer nudge.Stop()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-deadline.C:
			s.mu.Lock()
			n := len(s.conns)
			for conn := range s.conns {
				conn.Close()
			}
			s.mu.Unlock()
			// Give the closed connections a moment to unwind, but never hang
			// on a handler that is truly stuck — the caller is shutting down
			// either way.
			select {
			case <-done:
			case <-time.After(time.Second):
			}
			return fmt.Errorf("rpc: drain timed out after %v; closed %d connections forcibly", timeout, n)
		case <-nudge.C:
			// Expire the blocking header read on idle connections; a reader
			// mid-frame fails its read, which ends that connection's loop
			// after its in-flight work drains.
			s.mu.Lock()
			for conn := range s.conns {
				_ = conn.SetReadDeadline(time.Now())
			}
			s.mu.Unlock()
		}
	}
}

// DedupHits returns the number of replayed ingest envelopes acknowledged
// without re-applying — each one a duplicate the exactly-once window
// absorbed.
func (s *Server) DedupHits() int64 { return s.dedupHits.Load() }

// Panics returns the number of request handlers that panicked and were
// answered with an error frame instead of taking the process down.
func (s *Server) Panics() int64 { return s.panics.Load() }

// IngestSessions returns the number of live client dedup windows.
func (s *Server) IngestSessions() int {
	s.smu.Lock()
	defer s.smu.Unlock()
	return len(s.sessions)
}

// BytesIn returns the total payload bytes received across all connections.
func (s *Server) BytesIn() int64 { return s.bytesIn.Load() }

// BytesOut returns the total payload bytes sent across all connections.
func (s *Server) BytesOut() int64 { return s.bytesOut.Load() }

// Requests returns the total request frames handled.
func (s *Server) Requests() int64 { return s.requests.Load() }

// MaxInFlight returns the high-water mark of query requests executing
// concurrently on the worker pool — an observability counter that also lets
// tests assert pipelining actually overlapped request execution.
func (s *Server) MaxInFlight() int64 { return s.maxInflight.Load() }

// serverConn is the per-connection server state: the write lock that keeps
// concurrently produced response frames atomic on the wire, and the wait
// group that keeps ServeConn from returning while dispatched queries still
// hold the connection.
type serverConn struct {
	srv *Server
	nc  net.Conn
	wmu sync.Mutex
	wg  sync.WaitGroup
}

// ServeConn handles one connection's handshake and request loop, returning
// when the peer disconnects or violates the protocol. It is exported so
// tests and embedded deployments can drive the protocol over in-memory
// pipes.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	// A panic anywhere in this connection's framing path must cost the
	// server this one connection, never the process hosting every other
	// client's data.
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
		}
	}()
	br := bufio.NewReader(conn)

	// Handshake: expect the magic+version preamble promptly, answer with our
	// own. On a mismatch the answer still goes out before the close — a
	// version-1 client reads "MINT\x02" and reports the exact version
	// disagreement instead of a bare EOF.
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	pre := make([]byte, len(Magic)+1)
	if _, err := io.ReadFull(br, pre); err != nil {
		return
	}
	hsErr := checkHandshake(pre)
	_ = conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(handshakeBytes()); err != nil || hsErr != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	_ = conn.SetWriteDeadline(time.Time{})

	sc := &serverConn{srv: s, nc: conn}
	// Wait for dispatched queries before the outer defer closes the conn.
	defer sc.wg.Wait()

	var rbuf, resp []byte
	for {
		// Block without a deadline for the next frame header (idle clients
		// are fine), then require the rest of the frame promptly.
		typ, id, n, err := readFrameHeader(br)
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				// Framing violation: say why (best-effort), then drop the
				// connection — the stream position can no longer be trusted.
				sc.respond(errFrame(nil, id, err.Error()))
			}
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(frameBodyTimeout))
		var payload []byte
		if payload, rbuf, err = readFramePayload(br, n, rbuf); err != nil {
			return
		}
		_ = conn.SetReadDeadline(time.Time{})
		s.requests.Add(1)
		s.bytesIn.Add(int64(n) + frameHeaderBytes)

		switch typ {
		case reqPing:
			// Pings answer inline and carry no state: histogram only, no
			// observer span.
			start := time.Now()
			resp = appendFrame(resp[:0], respOK, id, nil)
			s.opHist(reqPing).Observe(time.Since(start))
			sc.respond(resp)
		case reqEnvelope:
			// Ingest lane: apply in arrival order on this reader and answer
			// after the apply, which is what makes the client's write barrier
			// mean "the server has these reports". The next frame is read
			// only after the answer, so TCP flow control paces the client.
			start := time.Now()
			resp = s.safeHandle(resp[:0], typ, id, payload)
			s.observeOp(typ, 0, time.Since(start), len(payload))
			sc.respond(resp)
			if cap(resp) > maxRetainedBuf {
				resp = nil
			}
		default:
			// Query lane: copy the payload (the reader buffer is about to be
			// reused) and execute on the bounded pool; the response may
			// overtake slower queries dispatched earlier. Queue wait spans
			// from here — including any block on the pool semaphore — until
			// the handler starts.
			enq := time.Now()
			s.sem <- struct{}{}
			cur := s.inflight.Add(1)
			for {
				max := s.maxInflight.Load()
				if cur <= max || s.maxInflight.CompareAndSwap(max, cur) {
					break
				}
			}
			pb := getBuf()
			pb.b = append(pb.b[:0], payload...)
			sc.wg.Add(1)
			go func(typ byte, id uint64, pb *payloadBuf, enq time.Time) {
				defer sc.wg.Done()
				defer func() {
					s.inflight.Add(-1)
					<-s.sem
				}()
				// Goroutine-level fence: a panic here (including one injected
				// by the dispatch test hook) must answer this request's error
				// frame, not unwind the process.
				defer func() {
					if r := recover(); r != nil {
						s.panics.Add(1)
						rb := getBuf()
						rb.b = errFrame(rb.b[:0], id, fmt.Sprintf("internal error: %v", r))
						sc.respond(rb.b)
						putBuf(rb)
					}
				}()
				if testHookQueryDispatch != nil {
					testHookQueryDispatch(typ)
				}
				start := time.Now()
				n := len(pb.b)
				rb := getBuf()
				rb.b = s.safeHandle(rb.b[:0], typ, id, pb.b)
				putBuf(pb)
				s.queryWait.Observe(start.Sub(enq))
				s.observeOp(typ, start.Sub(enq), time.Since(start), n)
				sc.respond(rb.b)
				putBuf(rb)
			}(typ, id, pb, enq)
		}
		// Drop high-water buffers: steady-state frames are small, and one
		// huge exchange must not pin its peak allocation per connection.
		if cap(rbuf) > maxRetainedBuf {
			rbuf = nil
		}
	}
}

// respond writes one response frame atomically. Oversized responses are
// rewritten into an error frame for the same request ID — the server never
// emits a frame its own protocol declares malformed. A write failure closes
// the connection; the reader notices and winds the connection down.
func (sc *serverConn) respond(resp []byte) {
	if len(resp)-frameHeaderBytes > MaxFrameBytes {
		id := binary.BigEndian.Uint64(resp[1:9])
		resp = errFrame(nil, id, fmt.Sprintf(
			"response of %d bytes exceeds the %d-byte frame limit; narrow the query",
			len(resp)-frameHeaderBytes, MaxFrameBytes))
	}
	sc.srv.bytesOut.Add(int64(len(resp)))
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	// Bound the response write: a peer that requests but never reads would
	// otherwise pin this goroutine (and a multi-MB response buffer) once
	// the TCP send buffer fills.
	_ = sc.nc.SetWriteDeadline(time.Now().Add(frameBodyTimeout))
	if _, err := sc.nc.Write(resp); err != nil {
		sc.nc.Close()
		return
	}
	_ = sc.nc.SetWriteDeadline(time.Time{})
}

// errFrame appends an error response for request id.
func errFrame(dst []byte, id uint64, msg string) []byte {
	return appendFrame(dst, respErr, id, func(b []byte) []byte { return wire.AppendString(b, msg) })
}

// safeHandle is handle behind a panic fence: a handler that panics (a
// malformed payload tripping an unguarded index, a backend bug) answers an
// error frame for its own request instead of unwinding the process out from
// under every other connection.
func (s *Server) safeHandle(dst []byte, typ byte, id uint64, payload []byte) (resp []byte) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			resp = errFrame(dst[:0], id, fmt.Sprintf("internal error: %v", r))
		}
	}()
	return s.handle(dst, typ, id, payload)
}

// applyEnvelope applies one sequenced ingest envelope under its session's
// exactly-once window: if seq <= last it acknowledges without applying;
// otherwise it applies, sets last = seq, and acknowledges once the WAL
// buffer has the records (an acknowledged envelope survives a crash of this
// process). The window stays exact because
//   - the client's pump sends in sequence order;
//   - each connection's envelopes apply in the order they arrive;
//   - a new connection's replay starts at the client's journal head;
//   - every envelope below the head has been acknowledged, and so applied.
//
// So last only ever moves to last+1, except past an envelope the client
// dropped itself. Holding the session lock across the check-and-apply makes
// a replay on a new connection racing its original on a dying one
// single-apply.
func (s *Server) applyEnvelope(dst []byte, id uint64, payload []byte) []byte {
	if len(payload) < envelopeHeaderBytes {
		return errFrame(dst, id, fmt.Sprintf("envelope of %d bytes is shorter than its %d-byte header",
			len(payload), envelopeHeaderBytes))
	}
	session := binary.BigEndian.Uint64(payload[:8])
	seq := binary.BigEndian.Uint64(payload[8:16])
	if session == 0 || seq == 0 {
		return errFrame(dst, id, fmt.Sprintf("bad envelope header: session %d, sequence %d", session, seq))
	}
	se := s.session(session)
	se.mu.Lock()
	defer se.mu.Unlock()
	if seq <= se.last {
		s.dedupHits.Add(1)
		return appendFrame(dst, respOK, id, nil)
	}
	err := wire.WalkEnvelope(payload[envelopeHeaderBytes:], s.backend)
	// Applied (or rejected as malformed — replaying it cannot fix it):
	// either way the window consumes the sequence.
	se.last = seq
	if err == nil {
		err = s.backend.SyncWAL()
	}
	if err != nil {
		return errFrame(dst, id, err.Error())
	}
	return appendFrame(dst, respOK, id, nil)
}

// handle dispatches one request frame and appends the response frame to
// dst.
func (s *Server) handle(dst []byte, typ byte, id uint64, payload []byte) []byte {
	switch typ {
	case reqPing:
		return appendFrame(dst, respOK, id, nil)

	case reqEnvelope:
		return s.applyEnvelope(dst, id, payload)

	case reqQuery:
		d := wire.NewDecoder(payload)
		traceID := d.Str()
		if err := d.Done(); err != nil {
			return errFrame(dst, id, err.Error())
		}
		return appendFrame(dst, respQueryResult, id, func(b []byte) []byte {
			return appendQueryResult(b, s.backend.Query(traceID))
		})

	case reqQueryMany:
		d := wire.NewDecoder(payload)
		ids := decodeStringSlice(d)
		if err := d.Done(); err != nil {
			return errFrame(dst, id, err.Error())
		}
		results := s.backend.QueryMany(ids)
		return appendFrame(dst, respQueryMany, id, func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(results)))
			for _, r := range results {
				b = appendQueryResult(b, r)
			}
			return b
		})

	case reqBatchAnalyze:
		d := wire.NewDecoder(payload)
		ids := decodeStringSlice(d)
		if err := d.Done(); err != nil {
			return errFrame(dst, id, err.Error())
		}
		stats, miss := s.backend.BatchQuery(ids)
		return appendFrame(dst, respBatchStats, id, func(b []byte) []byte {
			b = appendBatchStats(b, stats)
			return binary.AppendUvarint(b, uint64(miss))
		})

	case reqFindTraces:
		d := wire.NewDecoder(payload)
		f := decodeFilter(d)
		if err := d.Done(); err != nil {
			return errFrame(dst, id, err.Error())
		}
		return appendFrame(dst, respFound, id, func(b []byte) []byte {
			return appendFoundTraces(b, s.backend.FindTraces(f))
		})

	case reqFindAnalyze:
		d := wire.NewDecoder(payload)
		f := decodeFilter(d)
		if err := d.Done(); err != nil {
			return errFrame(dst, id, err.Error())
		}
		stats, found := s.backend.FindAnalyze(f)
		return appendFrame(dst, respFindAnalyze, id, func(b []byte) []byte {
			b = appendBatchStats(b, stats)
			return appendFoundTraces(b, found)
		})

	case reqStats:
		return appendFrame(dst, respStats, id, func(b []byte) []byte { return appendStats(b, BackendStats(s.backend)) })

	case reqFlush:
		if err := s.backend.FlushPersistence(); err != nil {
			return errFrame(dst, id, err.Error())
		}
		return appendFrame(dst, respOK, id, nil)

	default:
		return errFrame(dst, id, fmt.Sprintf("unknown request type 0x%02x", typ))
	}
}
