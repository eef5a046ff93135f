package rpc

// The client-side ingest journal: the exactly-once half of the fault
// tolerance layer. Every coalesced ingest envelope is stamped with the
// client's session ID and the next sequence number, copied into a journal
// entry, and kept there until the server acknowledges that sequence. Only
// the maintenance goroutine pumps the journal onto the connection, in
// sequence order, so TCP backpressure slows the pump and never a caller. A
// connection death un-marks the entries that were in flight on it, so after
// a redial the journal replays exactly the envelopes the server never
// acknowledged — the server's per-session dedup window absorbs the rare
// duplicate whose acknowledgement was lost in transit.

import (
	"encoding/binary"
	"fmt"
	"time"
)

// envEntry is one journaled ingest envelope.
type envEntry struct {
	seq      uint64
	buf      []byte // full envelope payload: session+seq header, then ops
	sent     bool   // in flight, awaiting acknowledgement
	everSent bool   // sent at least once (a later send is a replay)
}

// journalAppend stamps ops with the session header and the next sequence
// number and appends the entry, returning nil when the journal is at its
// byte bound and the envelope must be dropped instead (the dropped envelope
// consumes no sequence number). The caller owns surfacing the loss.
func (c *Client) journalAppend(ops []byte) *envEntry {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if len(c.journal) > 0 && c.jbytes+len(ops) > maxJournalBytes {
		return nil
	}
	c.nextSeq++
	e := &envEntry{seq: c.nextSeq}
	var hdr [envelopeHeaderBytes]byte
	binary.BigEndian.PutUint64(hdr[:8], c.session)
	binary.BigEndian.PutUint64(hdr[8:16], e.seq)
	e.buf = append(append(e.buf, hdr[:]...), ops...)
	c.journal = append(c.journal, e)
	c.jbytes += len(e.buf)
	return e
}

// journalAck removes the acknowledged sequence and wakes barrier waiters
// when the journal drains.
func (c *Client) journalAck(seq uint64) {
	c.jmu.Lock()
	for i, e := range c.journal {
		if e.seq == seq {
			c.jbytes -= len(e.buf)
			c.journal = append(c.journal[:i], c.journal[i+1:]...)
			break
		}
	}
	if len(c.journal) == 0 {
		c.jcond.Broadcast()
	}
	c.jmu.Unlock()
}

// journalDrop removes a sequence the server consumed without applying (an
// envelope it rejected as malformed): keeping it would replay a permanent
// error forever, and the server has advanced its window past it.
func (c *Client) journalDrop(seq uint64) { c.journalAck(seq) }

// journalUnsend marks one in-flight sequence as unsent again — its carrier
// connection died before acknowledging, so the pump must resend it.
func (c *Client) journalUnsend(seq uint64) {
	c.jmu.Lock()
	for _, e := range c.journal {
		if e.seq == seq {
			e.sent = false
			break
		}
	}
	c.jmu.Unlock()
}

// pumpJournal sends every unsent journal entry in sequence order on the
// connection. Only the maintenance goroutine calls it: the connection's
// writer is then one goroutine, and a server that stops reading blocks that
// goroutine, never a flush.
func (c *Client) pumpJournal() {
	for {
		c.jmu.Lock()
		var e *envEntry
		for _, je := range c.journal {
			if !je.sent {
				e = je
				break
			}
		}
		if e == nil {
			c.jmu.Unlock()
			return
		}
		e.sent = true
		replay := e.everSent
		e.everSent = true
		seq, buf := e.seq, e.buf
		c.jmu.Unlock()

		cc := c.state().cc
		if cc == nil {
			c.journalUnsend(seq)
			return // the connection is down; the redial loop re-pumps
		}
		if replay {
			c.replays.Add(1)
		}
		ca := getCall()
		ca.background, ca.seq = true, seq
		if err := cc.send(reqEnvelope, ca, func(dst []byte) []byte { return append(dst, buf...) }); err != nil {
			putCall(ca)
			c.journalUnsend(seq)
			if !isTransientErr(err) {
				// An envelope the protocol can never carry (oversized frame):
				// journaling it would wedge the barrier forever.
				c.journalDrop(seq)
				c.recordServerErr(err)
				continue
			}
			return
		}
	}
}

// awaitJournal blocks until every journaled ingest envelope has been
// acknowledged — the write barrier every synchronous operation runs before
// touching server state. It gives up after the retry deadline, when the
// client has latched a fatal error, or as soon as the circuit breaker knows
// the server is gone for good (connection refused on redial), returning an
// ErrUnavailable-wrapped error so callers can tell a retryable outage from a
// sticky failure.
func (c *Client) awaitJournal() error {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if len(c.journal) == 0 {
		return nil
	}
	deadline := time.Now().Add(retryDeadline)
	wake := time.AfterFunc(retryDeadline, c.wakeJournalWaiters)
	defer wake.Stop()
	for len(c.journal) > 0 {
		if err := c.fatalErr(); err != nil {
			return err
		}
		if st := c.state(); st.refused {
			return fmt.Errorf("%w; %d ingest envelopes unacknowledged", st.err, len(c.journal))
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("%w: %d ingest envelopes unacknowledged after %v",
				ErrUnavailable, len(c.journal), retryDeadline)
		}
		c.jcond.Wait()
	}
	return nil
}

// journalLen reports the number of unacknowledged envelopes.
func (c *Client) journalLen() int {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return len(c.journal)
}

// wakeJournalWaiters unblocks awaitJournal so it can re-check the fatal and
// connection-state conditions.
func (c *Client) wakeJournalWaiters() {
	c.jmu.Lock()
	c.jcond.Broadcast()
	c.jmu.Unlock()
}
