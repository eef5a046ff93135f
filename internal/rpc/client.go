package rpc

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// ErrClientClosed reports a call on a client after Close.
var ErrClientClosed = errors.New("rpc: client closed")

// Client is one multiplexed connection to a mintd backend server. It
// implements collector.Sink, so collectors ship their reports over it
// unchanged, and the query
// surface the mint.Cluster read path uses (Query, QueryMany, BatchQuery,
// FindTraces, FindAnalyze, Stats), which is how mint.Dial hands back a
// Cluster-compatible remote handle.
//
// All methods are safe for concurrent use. A demultiplexing reader goroutine
// hands each response to its request by ID, so many requests pipeline in
// flight on the one connection (the server runs them concurrently). A batch
// lookup is one request: the backend's query pool is its one fan-out, so
// the client does not split it. Ingest writes (reports, sampling
// marks) are fire-and-forget: they coalesce into sequenced envelopes
// journaled until the server acknowledges them, and one background
// goroutine sends the journal in order, so a slow server slows that
// goroutine, never the caller. Every synchronous operation (queries, Flush,
// Close) first flushes the coalescer and waits for the journal to drain — a
// query never runs ahead of the reports that precede it.
//
// Failures are survivable by design. A connection-level I/O error closes the
// connection and the maintenance loop redials it with exponential backoff
// and jitter; synchronous calls retry transparently within a per-call
// deadline; journaled ingest envelopes replay on reconnect and the server's
// per-session dedup window keeps the replay exactly-once. While the
// connection is down a circuit breaker makes calls wait for recovery — or
// fail fast once a redial is refused outright. The journal's byte bound is
// the one overload limit: past it new envelopes are dropped and reported
// through Err. Err distinguishes the failure classes: retryable outages
// surface as ErrUnavailable-wrapped errors, while protocol violations and
// server rejections are sticky. A closed client reports nil unless Close
// left ingest undelivered.
type Client struct {
	addr    string // redial target
	session uint64 // random nonzero ID stamped on ingest envelopes

	// cmu guards conn, the connection state machine; it is a leaf lock.
	cmu  sync.Mutex
	conn connState

	// errMu guards the client-wide sticky errors; it is a leaf lock.
	errMu sync.Mutex
	err   error // first fatal (non-retryable) transport or protocol error
	// serverErr is the first failure of any request whose caller cannot
	// return the error itself — a dropped report is telemetry lost, a
	// query that exhausted its retries is an answer silently gone empty.
	// It must surface through Err, not be swallowed.
	serverErr error

	// mu guards lifecycle and the ingest coalescer.
	mu      sync.Mutex
	closed  bool
	coBuf   []byte      // pending coalesced ingest ops (envelope body)
	coTimer *time.Timer // flush timer armed while coBuf is non-empty

	// jmu guards the ingest journal; jcond wakes barrier waiters; pumpWake
	// wakes the maintenance goroutine, the journal's one sender.
	jmu      sync.Mutex
	jcond    *sync.Cond
	journal  []*envEntry // unacknowledged envelopes in sequence order
	jbytes   int
	nextSeq  uint64
	pumpWake chan struct{}

	redials atomic.Int64 // connections restored by the redial loop
	retries atomic.Int64 // synchronous call retry attempts
	replays atomic.Int64 // journaled envelopes re-sent after a failure
	dropped atomic.Int64 // envelopes dropped to journal overflow

	closing atomic.Bool // gates error latching during a clean Close
	quit    chan struct{}
	bg      sync.WaitGroup

	// Self-observability, installed by Instrument. Atomic pointers because
	// background goroutines may be mid-call when the owner instruments the
	// freshly dialed client.
	callSeconds atomic.Pointer[telemetry.Histogram]
	slowOps     atomic.Pointer[telemetry.Ledger]
}

// Instrument registers the client's call-latency histogram in reg and
// routes slow calls into ledger. Call once, right after dialing; a nil
// ledger leaves the slow-op path off.
func (c *Client) Instrument(reg *telemetry.Registry, ledger *telemetry.Ledger) {
	c.callSeconds.Store(reg.Histogram("mint_rpc_client_call_seconds", "",
		"Client-observed synchronous RPC call latency, including the write barrier, transparent retries and backoff."))
	if ledger != nil {
		c.slowOps.Store(ledger)
	}
}

// clientConn is one live connection: a writer half serialized by wmu
// (frames are written atomically with a single Write call) and a reader
// goroutine that demultiplexes responses to their in-flight calls by
// request ID.
type clientConn struct {
	cli *Client
	nc  net.Conn
	br  *bufio.Reader

	wmu sync.Mutex
	enc []byte // reused frame encode buffer, guarded by wmu

	mu      sync.Mutex
	pending map[uint64]*call // in-flight requests by ID
	nextID  uint64
	err     error // sticky first transport error on this connection
}

// call is one in-flight request. Background calls (fire-and-forget ingest,
// keepalive pings) are finished by the reader; synchronous calls hand their
// response through done. Calls are pooled; a pooled call's done channel is
// always drained.
type call struct {
	done       chan struct{}
	typ        byte        // response frame type
	buf        *payloadBuf // response payload (pooled copy)
	err        error       // transport error, set by fail
	background bool
	seq        uint64 // journaled envelope sequence; 0 for everything else
}

// payloadBuf is a pooled byte buffer for response payloads.
type payloadBuf struct{ b []byte }

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}
var bufPool = sync.Pool{New: func() any { return new(payloadBuf) }}

func getCall() *call { return callPool.Get().(*call) }

func putCall(ca *call) {
	ca.typ, ca.buf, ca.err, ca.background, ca.seq = 0, nil, nil, false, 0
	callPool.Put(ca)
}

func getBuf() *payloadBuf { return bufPool.Get().(*payloadBuf) }

func putBuf(pb *payloadBuf) {
	if cap(pb.b) > maxRetainedBuf {
		pb.b = nil
	}
	bufPool.Put(pb)
}

// DialTimeout bounds how long Dial waits for the TCP connect and the
// handshake answer.
const DialTimeout = 10 * time.Second

// CallTimeout bounds how long a connection with requests in flight may go
// without receiving a response frame. A server that stalls past it (host
// partition, frozen process) surfaces as that connection's sticky transport
// error instead of wedging callers forever. Generous: the largest
// legitimate exchanges (multi-thousand-ID QueryMany against a cold store)
// finish orders of magnitude faster. An idle connection carries no read
// deadline at all — only in-flight requests arm one.
const CallTimeout = 2 * time.Minute

// KeepaliveInterval is how often the client pings a connection that has
// nothing in flight, so a dead peer or dropped NAT mapping is noticed while
// idle instead of on the first real request.
const KeepaliveInterval = 30 * time.Second

// ReportFlushInterval bounds how long a coalesced ingest write (report,
// sampling mark) may sit in the client before it is shipped. Synchronous
// operations flush sooner: every query, Flush and Close first drains the
// coalescer and waits for the server's acknowledgement.
const ReportFlushInterval = 20 * time.Millisecond

// ReportFlushBytes is the coalescing buffer size that triggers an immediate
// flush regardless of the interval.
const ReportFlushBytes = 64 << 10

// RetryDeadline bounds one synchronous call end to end: the total time it
// may spend across transparent retries, waiting out an open circuit breaker
// included. It is also the write barrier's bound on waiting for journaled
// ingest envelopes to drain. Generous by design — it must ride out a redial
// backoff cycle during a transient partition.
const RetryDeadline = 15 * time.Second

// Redial policy for a dead connection: exponential backoff with ±50% jitter
// between RedialBackoffBase and RedialBackoffMax, each attempt bounded by
// RedialDialTimeout.
const (
	// RedialBackoffBase is the first-retry backoff after a connection dies.
	RedialBackoffBase = 50 * time.Millisecond
	// RedialBackoffMax caps the exponential redial backoff.
	RedialBackoffMax = 2 * time.Second
	// RedialDialTimeout bounds each background reconnect attempt (TCP
	// connect plus handshake): shorter than DialTimeout because a redial
	// that stalls is better retried than waited out.
	RedialDialTimeout = 2 * time.Second
)

// MaxJournalBytes bounds the client-side ingest journal. While the server is
// unreachable, coalesced envelopes accumulate here for replay; past the
// bound new envelopes are dropped (and the loss surfaces through Err) rather
// than growing without limit.
const MaxJournalBytes = 32 << 20

// Tunable mirrors of the exported constants, overridden by tests that need
// short timeouts or quiet keepalives.
var (
	callTimeout         = time.Duration(CallTimeout)
	keepaliveInterval   = time.Duration(KeepaliveInterval)
	reportFlushInterval = time.Duration(ReportFlushInterval)
	reportFlushBytes    = ReportFlushBytes
	retryDeadline       = time.Duration(RetryDeadline)
	redialBackoffBase   = time.Duration(RedialBackoffBase)
	redialBackoffMax    = time.Duration(RedialBackoffMax)
	redialDialTimeout   = time.Duration(RedialDialTimeout)
	redialTick          = 10 * time.Millisecond
	retryPauseBase      = 10 * time.Millisecond
	maxJournalBytes     = MaxJournalBytes
)

// TestTimers carries overrides for the client's timing and sizing tunables.
// Zero fields keep the current value.
type TestTimers struct {
	// Call overrides CallTimeout.
	Call time.Duration
	// Keepalive overrides KeepaliveInterval.
	Keepalive time.Duration
	// Flush overrides ReportFlushInterval.
	Flush time.Duration
	// RetryDeadline overrides RetryDeadline.
	RetryDeadline time.Duration
	// RedialBase overrides RedialBackoffBase.
	RedialBase time.Duration
	// RedialMax overrides RedialBackoffMax.
	RedialMax time.Duration
	// RedialDial overrides RedialDialTimeout.
	RedialDial time.Duration
	// RedialTick overrides the maintenance loop's tick.
	RedialTick time.Duration
	// JournalBytes overrides MaxJournalBytes.
	JournalBytes int
}

// SetTimersForTest overrides the client timing tunables and returns a
// restore function. It exists for tests — in this package and in packages
// that drive clients through failure injection — that cannot wait out
// production deadlines. It must not be called while clients are live.
func SetTimersForTest(tt TestTimers) (restore func()) {
	prev := []time.Duration{callTimeout, keepaliveInterval, reportFlushInterval,
		retryDeadline, redialBackoffBase, redialBackoffMax, redialDialTimeout, redialTick}
	prevJournal := maxJournalBytes
	set := func(dst *time.Duration, v time.Duration) {
		if v != 0 {
			*dst = v
		}
	}
	set(&callTimeout, tt.Call)
	set(&keepaliveInterval, tt.Keepalive)
	set(&reportFlushInterval, tt.Flush)
	set(&retryDeadline, tt.RetryDeadline)
	set(&redialBackoffBase, tt.RedialBase)
	set(&redialBackoffMax, tt.RedialMax)
	set(&redialDialTimeout, tt.RedialDial)
	set(&redialTick, tt.RedialTick)
	if tt.JournalBytes != 0 {
		maxJournalBytes = tt.JournalBytes
	}
	return func() {
		callTimeout, keepaliveInterval, reportFlushInterval = prev[0], prev[1], prev[2]
		retryDeadline, redialBackoffBase, redialBackoffMax = prev[3], prev[4], prev[5]
		redialDialTimeout, redialTick = prev[6], prev[7]
		maxJournalBytes = prevJournal
	}
}

// newSessionID draws the random nonzero client-session ID stamped on ingest
// envelopes. Collisions across clients would merge their dedup windows, so
// the ID comes from the system's CSPRNG; the clock fallback exists only for
// an unreadable entropy source.
func newSessionID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// Dial connects to a mintd backend server and performs the protocol
// handshake. It starts the connection's reader and the maintenance
// goroutine, which redials a dead connection in the background, pings an
// idle one, and is the only sender of journaled ingest.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr, quit: make(chan struct{}), pumpWake: make(chan struct{}, 1), session: newSessionID()}
	c.jcond = sync.NewCond(&c.jmu)
	cc, err := c.dialConn(DialTimeout)
	if err != nil {
		return nil, err
	}
	c.conn.cc = cc
	c.bg.Add(2)
	go cc.readLoop()
	go c.maintenanceLoop()
	return c, nil
}

// DialPool is Dial; the connection count is ignored.
//
// Deprecated: a Client holds exactly one multiplexed connection. DialPool
// remains only for the benchmark harness under bench/, which pins it; call
// Dial.
func DialPool(addr string, _ int) (*Client, error) { return Dial(addr) }

// dialConn connects to the server and performs the client half of the
// handshake, both bounded by timeout.
func (c *Client) dialConn(timeout time.Duration) (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	br := bufio.NewReader(conn)
	_ = conn.SetDeadline(time.Now().Add(timeout))
	echo := make([]byte, len(Magic)+1)
	if _, err = conn.Write(handshakeBytes()); err == nil {
		_, err = io.ReadFull(br, echo)
	}
	if err == nil {
		err = checkHandshake(echo)
	}
	if err != nil && echo[0] == respErr {
		// A version-1 server answers a handshake it cannot speak with a
		// v1-framed error instead of a preamble; decode it (bounded) so the
		// operator sees the server's words, not a bare "bad magic".
		if n := binary.BigEndian.Uint32(echo[1:5]); n <= 4096 {
			body := make([]byte, n)
			if _, rerr := io.ReadFull(br, body); rerr == nil {
				d := wire.NewDecoder(body)
				if msg := d.Str(); d.Done() == nil && msg != "" {
					err = fmt.Errorf("%w: peer rejected the handshake: %s", ErrProtocol, msg)
				}
			}
		}
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: handshake with %s: %w", c.addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return &clientConn{cli: c, nc: conn, br: br, pending: map[uint64]*call{}}, nil
}

// healthy reports whether the connection has not latched a transport error.
func (cc *clientConn) healthy() bool {
	cc.mu.Lock()
	ok := cc.err == nil
	cc.mu.Unlock()
	return ok
}

// readLoop demultiplexes response frames to their in-flight calls until the
// connection dies.
func (cc *clientConn) readLoop() {
	defer cc.cli.bg.Done()
	var buf []byte
	for {
		typ, id, payload, nbuf, err := readFrame(cc.br, buf)
		buf = nbuf
		if err != nil {
			cc.fail(err)
			return
		}
		if !cc.dispatch(typ, id, payload) {
			return
		}
		if cap(buf) > maxRetainedBuf {
			buf = nil
		}
	}
}

// dispatch routes one response frame to its call. It returns false when the
// connection can no longer be trusted (the error has been latched).
func (cc *clientConn) dispatch(typ byte, id uint64, payload []byte) bool {
	cc.mu.Lock()
	ca, ok := cc.pending[id]
	if ok {
		delete(cc.pending, id)
	}
	// The read deadline tracks in-flight requests: armed while any remain
	// (and re-armed per response, so a streak of slow answers is fine as
	// long as the server keeps answering), cleared the moment the
	// connection goes idle — an idle connection must be allowed to sit
	// quiet indefinitely between keepalive pings.
	if len(cc.pending) == 0 {
		_ = cc.nc.SetReadDeadline(time.Time{})
	} else {
		_ = cc.nc.SetReadDeadline(time.Now().Add(callTimeout))
	}
	cc.mu.Unlock()
	if !ok {
		cc.fail(fmt.Errorf("%w: response for unknown request id %d", ErrProtocol, id))
		return false
	}
	if !ca.background {
		pb := getBuf()
		pb.b = append(pb.b[:0], payload...)
		ca.typ, ca.buf = typ, pb
		ca.done <- struct{}{}
		return true
	}
	// Background call: the reader is its only owner. Settle the journal
	// entry it carried (if any), surface rejections, recycle.
	seq := ca.seq
	putCall(ca)
	switch typ {
	case respOK:
		if seq != 0 {
			cc.cli.journalAck(seq)
		}
	case respErr:
		err, bad := respError(payload)
		if bad != nil {
			cc.fail(bad)
			return false
		}
		if seq != 0 {
			// The server consumed the sequence without applying it (a
			// malformed envelope); replaying it would loop forever.
			cc.cli.journalDrop(seq)
		}
		cc.cli.recordServerErr(err)
	default:
		cc.fail(fmt.Errorf("%w: response type 0x%02x for a write", ErrProtocol, typ))
		return false
	}
	return true
}

// respError decodes the payload of a respErr frame into the server's
// rejection. bad reports an undecodable payload — a desynced stream the
// caller must latch.
func respError(payload []byte) (err, bad error) {
	d := wire.NewDecoder(payload)
	err = fmt.Errorf("rpc: server: %s", d.Str())
	return err, d.Done()
}

// fail latches the connection's first transport error, closes it, and
// drains every in-flight call: synchronous callers are woken with the
// error, journaled envelopes are un-marked so the pump replays them on the
// redialed connection, and the state machine takes the connection down.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	cc.nc.Close()
	pending := cc.pending
	cc.pending = map[uint64]*call{}
	cc.mu.Unlock()
	for _, ca := range pending {
		if ca.background {
			if ca.seq != 0 {
				cc.cli.journalUnsend(ca.seq)
			}
			putCall(ca)
		} else {
			ca.err = err
			ca.done <- struct{}{}
		}
	}
	// Fatal errors latch client-wide; transient ones are the redial loop's
	// business.
	if !isTransientErr(err) {
		cc.cli.noteFatalErr(err)
	}
	cc.cli.transition(cc, nil, err)
}

// noteFatalErr latches the first non-retryable failure client-wide. A clean
// Close tears the connection down on purpose; the errors that teardown
// provokes are not failures and must not turn a healthy Close into Err.
func (c *Client) noteFatalErr(err error) {
	if c.closing.Load() {
		return
	}
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.wakeJournalWaiters()
}

// fatalErr returns the latched fatal error, if any.
func (c *Client) fatalErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// recordServerErr latches the first lost-answer failure for Err.
func (c *Client) recordServerErr(err error) {
	if err == nil || errors.Is(err, ErrClientClosed) {
		return
	}
	c.errMu.Lock()
	if c.serverErr == nil && c.err == nil {
		c.serverErr = err
	}
	c.errMu.Unlock()
}

// Err returns the client's sticky error, if any — the signal to check when
// a remote cluster's answers suddenly go empty. Precedence: the first fatal
// transport or protocol error (sticky); then the first request failure
// whose result had to be answered with zero values (a dropped report
// violates no-discard, a query that exhausted its retries would otherwise
// masquerade as misses); then, while the connection is down, the live
// breaker state as an ErrUnavailable-wrapped error (retryable — it clears
// when a redial lands). A cleanly closed client reports nil.
func (c *Client) Err() error {
	c.errMu.Lock()
	if c.err != nil {
		defer c.errMu.Unlock()
		return c.err
	}
	if c.serverErr != nil {
		defer c.errMu.Unlock()
		return c.serverErr
	}
	c.errMu.Unlock()
	if c.closing.Load() {
		return nil
	}
	return c.state().err
}

// Redials returns the number of connections the background redial loop has
// restored.
func (c *Client) Redials() int64 { return c.redials.Load() }

// Retries returns the number of transparent retry attempts synchronous
// calls have made.
func (c *Client) Retries() int64 { return c.retries.Load() }

// ReplayedEnvelopes returns the number of journaled ingest envelopes that
// were re-sent after a connection failure.
func (c *Client) ReplayedEnvelopes() int64 { return c.replays.Load() }

// DroppedEnvelopes returns the number of ingest envelopes dropped because
// the journal hit its byte bound while the server was unreachable.
func (c *Client) DroppedEnvelopes() int64 { return c.dropped.Load() }

// send registers ca as an in-flight request and writes its frame. On a nil
// return the machinery owns the call (the reader or fail will finish it);
// on an error return the call was never exposed and the caller keeps it.
func (cc *clientConn) send(reqType byte, ca *call, encode func([]byte) []byte) error {
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return err
	}
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = ca
	if len(cc.pending) == 1 {
		_ = cc.nc.SetReadDeadline(time.Now().Add(callTimeout))
	}
	cc.mu.Unlock()

	cc.wmu.Lock()
	cc.enc = appendFrame(cc.enc[:0], reqType, id, encode)
	if len(cc.enc)-frameHeaderBytes > MaxFrameBytes {
		cc.wmu.Unlock()
		// Refuse to send a frame the server's reader must reject (which
		// would poison the connection); surface a caller error instead.
		if cc.unregister(id) {
			return fmt.Errorf("%w: request of %d bytes exceeds the %d-byte frame limit",
				ErrProtocol, len(cc.enc)-frameHeaderBytes, MaxFrameBytes)
		}
		// The connection failed concurrently and fail() already finished
		// the call; the machinery owns it.
		return nil
	}
	_ = cc.nc.SetWriteDeadline(time.Now().Add(callTimeout))
	_, werr := cc.nc.Write(cc.enc)
	if werr == nil {
		_ = cc.nc.SetWriteDeadline(time.Time{})
	}
	if cap(cc.enc) > maxRetainedBuf {
		cc.enc = nil
	}
	cc.wmu.Unlock()
	if werr != nil {
		cc.fail(werr) // finishes the registered call
	}
	return nil
}

// unregister withdraws a never-sent request. It reports whether the call
// was still registered (false means fail() raced in and finished it).
func (cc *clientConn) unregister(id uint64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.pending[id]; !ok {
		return false
	}
	delete(cc.pending, id)
	if len(cc.pending) == 0 {
		_ = cc.nc.SetReadDeadline(time.Time{})
	}
	return true
}

// exchange performs one synchronous request/response over this connection.
// Many exchanges pipeline concurrently; the reader hands each its response
// by request ID. A respErr response decodes into a returned error without
// poisoning the connection; transport, framing and decode errors latch.
func (cc *clientConn) exchange(reqType, respType byte, encode func([]byte) []byte, decode func(*wire.Decoder)) error {
	ca := getCall()
	if err := cc.send(reqType, ca, encode); err != nil {
		putCall(ca)
		return err
	}
	<-ca.done
	if ca.err != nil {
		err := ca.err
		putCall(ca)
		return err
	}
	typ, pb := ca.typ, ca.buf
	putCall(ca)
	var err error
	switch typ {
	case respErr:
		var bad error
		if err, bad = respError(pb.b); bad != nil {
			cc.fail(bad)
			err = bad
		}
	case respType:
		d := wire.NewDecoder(pb.b)
		if decode != nil {
			decode(d)
		}
		if err = d.Done(); err != nil {
			// A server that emits undecodable responses is as broken as a
			// dead socket: latch, so the desync cannot corrupt later
			// exchanges.
			cc.fail(err)
		}
	default:
		err = fmt.Errorf("%w: response type 0x%02x, want 0x%02x", ErrProtocol, typ, respType)
		cc.fail(err)
	}
	putBuf(pb)
	return err
}

// pingIfIdle issues a background ping on a healthy connection with nothing
// in flight. A ping arms the read deadline for its own flight and clears it
// when answered, so an idle connection never accumulates a stale deadline.
func (cc *clientConn) pingIfIdle() {
	cc.mu.Lock()
	busy := cc.err != nil || len(cc.pending) > 0
	cc.mu.Unlock()
	if busy {
		return
	}
	ca := getCall()
	ca.background = true
	if err := cc.send(reqPing, ca, nil); err != nil {
		putCall(ca)
	}
}

// isClosed reports whether Close has begun.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// call is the one synchronous path: the write barrier, then one exchange,
// retried transparently. Transient failures (connection I/O errors, a
// connection that is down) retry with jittered backoff until
// the per-call retry deadline; fatal errors and server rejections return
// immediately. While the breaker is open the wait rides its recovery
// signal, and the refused state fails fast.
func (c *Client) call(reqType, respType byte, encode func([]byte) []byte, decode func(*wire.Decoder)) error {
	if h := c.callSeconds.Load(); h != nil {
		start := time.Now()
		defer func() {
			d := time.Since(start)
			h.Observe(d)
			if slow := c.slowOps.Load(); slow != nil && slow.Exceeds(d) {
				slow.Record("rpc-client-call", opName(reqType), d, 0, -1)
			}
		}()
	}
	if err := c.barrier(); err != nil {
		return err
	}
	deadline := time.Now().Add(retryDeadline)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if c.isClosed() {
			return ErrClientClosed
		}
		if err := c.fatalErr(); err != nil {
			return err
		}
		if cc := c.state().cc; cc != nil {
			err := cc.exchange(reqType, respType, encode, decode)
			if !isTransientErr(err) {
				return err
			}
			lastErr = err
		}
		st := c.state()
		if st.refused {
			return st.err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if st.err != nil {
				return st.err
			}
			return fmt.Errorf("%w: retry deadline exceeded: %v", ErrUnavailable, lastErr)
		}
		c.retries.Add(1)
		t := time.NewTimer(min(retryPause(attempt), remaining))
		select {
		case <-st.recovered: // nil, and so never ready, while the connection is up
		case <-t.C:
		case <-c.quit:
			t.Stop()
			return ErrClientClosed
		}
		t.Stop()
	}
}

// barrier flushes pending coalesced writes and waits until the server has
// acknowledged every journaled envelope.
func (c *Client) barrier() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.flushOpsLocked()
	c.mu.Unlock()
	return c.awaitJournal()
}

// maxRetainedBuf bounds the reusable buffers kept between exchanges: one
// huge QueryMany must not pin hundreds of MB on a long-lived connection
// whose steady-state frames are a few KB.
const maxRetainedBuf = 1 << 20

// Ping round-trips an empty frame, verifying the server is responsive.
func (c *Client) Ping() error {
	return c.call(reqPing, respOK, nil, nil)
}

// Close flushes the coalescer and waits (bounded by the retry deadline, or
// until the breaker knows the server is gone) for journaled ingest
// envelopes to be acknowledged, then closes the connection. Ingest it could
// not deliver is reported: Close returns the error naming how many
// envelopes were never acknowledged, and Err reports it too. Further calls
// fail fast with ErrClientClosed. Safe to call more than once.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.flushOpsLocked()
	c.mu.Unlock()
	lost := c.awaitJournal()
	c.recordServerErr(lost)
	c.closing.Store(true)
	close(c.quit)
	c.cmu.Lock()
	cc := c.conn.cc
	c.conn.cc = nil
	c.cmu.Unlock()
	if cc != nil {
		cc.nc.Close()
	}
	c.bg.Wait()
	return lost
}

// --- ingest coalescing (collector.Sink) ---

// coalesce appends ingest ops to the pending envelope. Every ingest method
// is fire-and-forget: the envelope ships on the flush interval or at the
// size threshold, and synchronous operations flush it first. A closed
// client drops the ops.
func (c *Client) coalesce(appendOps func([]byte) []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.coBuf = appendOps(c.coBuf)
	if len(c.coBuf) >= reportFlushBytes {
		c.flushOpsLocked()
	} else if c.coTimer == nil {
		c.coTimer = time.AfterFunc(reportFlushInterval, c.flushOpsTimer)
	}
}

// flushOpsTimer is the interval flush. A timer that fires after a
// synchronous flush already drained the buffer is a harmless no-op.
func (c *Client) flushOpsTimer() {
	c.mu.Lock()
	c.flushOpsLocked()
	c.mu.Unlock()
}

// flushOpsLocked seals the coalesced ingest ops into one sequenced,
// journaled envelope and wakes the maintenance goroutine to send it. With
// the connection down the envelope simply stays journaled — the redial loop
// replays it when the connection comes back; only journal overflow drops it
// (and the loss surfaces through Err). Callers hold c.mu.
func (c *Client) flushOpsLocked() {
	if c.coTimer != nil {
		c.coTimer.Stop()
		c.coTimer = nil
	}
	if len(c.coBuf) == 0 {
		return
	}
	if e := c.journalAppend(c.coBuf); e == nil {
		c.dropped.Add(1)
		c.recordServerErr(fmt.Errorf("rpc: ingest journal over %d bytes; %d bytes of telemetry dropped",
			maxJournalBytes, len(c.coBuf)))
	}
	c.coBuf = c.coBuf[:0]
	if cap(c.coBuf) > maxRetainedBuf {
		c.coBuf = nil
	}
	select {
	case c.pumpWake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// AcceptPatterns coalesces one pattern report.
func (c *Client) AcceptPatterns(r *wire.PatternReport) {
	c.coalesce(func(dst []byte) []byte { return wire.AppendPatternOp(dst, r) })
}

// AcceptBloom coalesces one Bloom filter report. The report's Full field is
// the wire carrier of the immutable flag: the server re-derives immutable
// from Full on receipt. Every current Sink caller passes r.Full, but the
// interface allows them to diverge, so a mismatched call is realigned
// before encoding rather than silently shipped with the wrong flag —
// remote segment handling must stay byte-identical to in-process.
func (c *Client) AcceptBloom(r *wire.BloomReport, immutable bool) {
	if r.Full != immutable {
		clone := *r
		clone.Full = immutable
		r = &clone
	}
	c.coalesce(func(dst []byte) []byte { return wire.AppendBloomOp(dst, r) })
}

// AcceptParams coalesces one sampled trace's parameter report.
func (c *Client) AcceptParams(r *wire.ParamsReport) {
	c.coalesce(func(dst []byte) []byte { return wire.AppendParamsOp(dst, r) })
}

// MarkSampled coalesces a trace-coherence sampling decision — the per-trace
// write the lock-step transport paid a full round trip for.
func (c *Client) MarkSampled(traceID, reason string) {
	c.coalesce(func(dst []byte) []byte { return wire.AppendMarkOp(dst, traceID, reason) })
}

// --- query surface ---

// Query answers one trace lookup from the remote backend. Transport errors
// answer Miss; check Err.
func (c *Client) Query(traceID string) backend.QueryResult {
	var r backend.QueryResult
	err := c.call(reqQuery, respQueryResult,
		func(dst []byte) []byte { return wire.AppendString(dst, traceID) },
		func(d *wire.Decoder) { r = decodeQueryResult(d) })
	if err != nil {
		c.recordServerErr(err)
		return backend.QueryResult{}
	}
	return r
}

// QueryMany answers one query per trace ID in one request; the server's
// query pool fans it out. Results are positional, identical to serial
// Query calls. A response with the wrong result count is a broken server,
// not a miss: it latches through the decoder so callers see Err, not silent
// all-Miss data. Transport errors answer all-Miss; check Err.
func (c *Client) QueryMany(traceIDs []string) []backend.QueryResult {
	out := make([]backend.QueryResult, len(traceIDs))
	err := c.call(reqQueryMany, respQueryMany,
		func(dst []byte) []byte { return appendStringSlice(dst, traceIDs) },
		func(d *wire.Decoder) {
			n := d.Count()
			if n != len(traceIDs) && d.Err() == nil {
				d.Fail(fmt.Sprintf("QueryMany answered %d results for %d ids", n, len(traceIDs)))
				return
			}
			for j := 0; j < n && d.Err() == nil; j++ {
				out[j] = decodeQueryResult(d)
			}
		})
	if err != nil {
		c.recordServerErr(err)
		return make([]backend.QueryResult, len(traceIDs))
	}
	return out
}

// emptyBatchStats is the zero-value answer for failed aggregate calls.
func emptyBatchStats() *backend.BatchStats {
	return &backend.BatchStats{ByService: map[string]*backend.ServiceStats{}, Edges: map[string]int{}}
}

// BatchQuery aggregates many traces server-side in one request, returning
// the batch statistics and the number of misses.
func (c *Client) BatchQuery(traceIDs []string) (*backend.BatchStats, int) {
	var stats *backend.BatchStats
	var misses int
	err := c.call(reqBatchAnalyze, respBatchStats,
		func(dst []byte) []byte { return appendStringSlice(dst, traceIDs) },
		func(d *wire.Decoder) {
			stats = decodeBatchStats(d)
			misses = int(d.Uvarint())
		})
	if err != nil {
		c.recordServerErr(err)
		return emptyBatchStats(), len(traceIDs)
	}
	return stats, misses
}

// FindTraces runs a predicate search server-side in one request.
func (c *Client) FindTraces(f backend.Filter) []backend.FoundTrace {
	var out []backend.FoundTrace
	if err := c.call(reqFindTraces, respFound,
		func(dst []byte) []byte { return appendFilter(dst, f) },
		func(d *wire.Decoder) { out = decodeFoundTraces(d) }); err != nil {
		c.recordServerErr(err)
		return nil
	}
	return out
}

// FindAnalyze runs a predicate search plus aggregation server-side in one
// round-trip.
func (c *Client) FindAnalyze(f backend.Filter) (*backend.BatchStats, []backend.FoundTrace) {
	var st *backend.BatchStats
	var found []backend.FoundTrace
	err := c.call(reqFindAnalyze, respFindAnalyze,
		func(dst []byte) []byte { return appendFilter(dst, f) },
		func(d *wire.Decoder) {
			st = decodeBatchStats(d)
			found = decodeFoundTraces(d)
		})
	if err != nil {
		c.recordServerErr(err)
		return emptyBatchStats(), nil
	}
	return st, found
}

// Stats fetches the server's operations snapshot — storage accounting and
// pattern and shard counts — in one round trip. A failure is also recorded
// for Err, since callers that only want the counts use the zero values.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.call(reqStats, respStats, nil,
		func(d *wire.Decoder) { st = decodeStats(d) })
	if err != nil {
		c.recordServerErr(err)
	}
	return st, err
}

// FlushPersistence flushes the coalesced ingest writes, waits for their
// acknowledgement, then asks the server to force its write-ahead logs to
// durable storage — everything reported before the call survives a server
// crash.
func (c *Client) FlushPersistence() error {
	return c.call(reqFlush, respOK, nil, nil)
}

// ClosePersistence is the remote analogue of detaching the durable store on
// Close: it flushes the server's WAL durable, then closes the connection.
// The server itself stays up for other clients.
func (c *Client) ClosePersistence() error {
	err := c.FlushPersistence()
	if cerr := c.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
