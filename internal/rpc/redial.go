package rpc

// The connection state machine. The client holds one connection, which is
// up or down. A connection that dies is redialed by the maintenance loop
// with exponential backoff and jitter. While it is down, synchronous calls
// wait for recovery up to their deadline (the circuit breaker), except once
// a redial was refused outright — the server is gone, not partitioned —
// which fails them fast. The same loop also pumps the ingest journal and
// pings an idle connection.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"syscall"
	"time"
)

// ErrUnavailable reports that the connection was down and the
// retry/redial machinery could not complete the call in time. It is the
// retryable failure class: the client keeps redialing in the background, and
// a later call may succeed. Protocol violations and server rejections do not
// wrap it — those are sticky.
var ErrUnavailable = errors.New("rpc: server unavailable")

// connState is the client's connection state, guarded by Client.cmu. Up:
// cc is set and every other field is zero. Down: cc is nil, recovered closes
// when a redial brings a connection back, err is the stable error calls fail
// with, and redialAt is when the next attempt is due; refused marks the
// fail-fast substate.
type connState struct {
	cc        *clientConn
	recovered chan struct{}
	err       error
	refused   bool
	backoff   time.Duration
	redialAt  time.Time
}

// state reads the state machine. A connection that has latched an error but
// not yet been taken down reads as neither up nor down: callers retry.
func (c *Client) state() connState {
	c.cmu.Lock()
	st := c.conn
	c.cmu.Unlock()
	if st.cc != nil && !st.cc.healthy() {
		st.cc = nil
	}
	return st
}

// transition is the state machine's one transition. A non-nil next comes up
// and closes the breaker. Otherwise prev, the live connection, died of
// cause; or, with prev nil, a redial attempt failed with cause, which
// advances the backoff (exponential with ±50% jitter, capped at
// redialBackoffMax) and, when the attempt was refused, enters the fail-fast
// substate. Every transition wakes the write barrier to re-check.
func (c *Client) transition(prev, next *clientConn, cause error) {
	c.cmu.Lock()
	st := &c.conn
	switch {
	case next != nil:
		if st.recovered != nil {
			close(st.recovered)
		}
		*st = connState{cc: next}
	case prev != nil:
		if st.cc != prev {
			c.cmu.Unlock() // already replaced, or taken by Close
			return
		}
		// The first redial attempt is immediate.
		*st = connState{recovered: make(chan struct{}),
			err: fmt.Errorf("%w: connection down: %v", ErrUnavailable, cause)}
	default:
		st.backoff = min(max(redialBackoffBase, 2*st.backoff), redialBackoffMax)
		st.redialAt = time.Now().Add(st.backoff/2 + time.Duration(rand.Int63n(int64(st.backoff)/2+1)))
		st.refused = st.refused || errors.Is(cause, syscall.ECONNREFUSED)
	}
	c.cmu.Unlock()
	c.wakeJournalWaiters()
}

// maintenanceLoop runs the state machine: on every tick it redials a down
// connection that is past its backoff, pings an up one that has idled a
// keepalive interval, and re-pumps the ingest journal (delivering
// busy-delayed entries that have come due, and anything a fresh connection
// can now carry).
func (c *Client) maintenanceLoop() {
	defer c.bg.Done()
	t := time.NewTicker(redialTick)
	defer t.Stop()
	nextPing := time.Now().Add(keepaliveInterval)
	for {
		select {
		case <-c.quit:
			return
		case now := <-t.C:
			switch st := c.state(); {
			case st.cc != nil:
				if !now.Before(nextPing) {
					st.cc.pingIfIdle()
					nextPing = now.Add(keepaliveInterval)
				}
			case st.recovered != nil && !now.Before(st.redialAt):
				c.redial()
			}
		}
		c.pumpJournal()
	}
}

// redial attempts one reconnect for the down connection.
func (c *Client) redial() {
	cc, err := c.dialConn(redialDialTimeout)
	if err != nil {
		c.transition(nil, nil, err)
		return
	}
	// Install under c.mu so Close, which sets closed under it first, either
	// sees this connection to close it or makes us drop it here.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.nc.Close()
		return
	}
	c.transition(nil, cc, nil)
	c.bg.Add(1)
	c.mu.Unlock()
	go cc.readLoop()
	c.redials.Add(1)
	c.pumpJournal()
}

// isTransientErr classifies an exchange or send failure: connection-level
// I/O errors (resets, timeouts, closed sockets, truncated streams) and busy
// shedding are retryable on a redialed connection; protocol violations,
// decode desyncs and server rejections are not — retrying a broken peer
// cannot make it correct.
func isTransientErr(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, errServerBusy):
		return true
	case errors.Is(err, ErrProtocol) || errors.Is(err, ErrClientClosed):
		return false
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ECONNREFUSED), errors.Is(err, os.ErrDeadlineExceeded):
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// errServerBusy is the client-side form of a busy response to a synchronous
// call: transient, retried with backoff, never latched.
var errServerBusy = errors.New("rpc: server busy")

// retryPause is the synchronous-call retry backoff: exponential from
// retryPauseBase with ±50% jitter, capped well below the redial backoff so a
// retrying call probes a recovering connection promptly.
func retryPause(attempt int) time.Duration {
	if attempt > 5 {
		attempt = 5
	}
	p := retryPauseBase << attempt
	return p/2 + time.Duration(rand.Int63n(int64(p)/2+1))
}
