// Package rpc is the network transport that turns the in-process Mint
// library into a deployable client/server system: a multiplexed,
// length-prefixed binary protocol over TCP carrying the same report payloads
// the collectors and the durable storage engine already encode (coalesced
// into sequenced wire envelopes), plus the backend's query surface (Query,
// QueryMany, BatchQuery, FindTraces, FindAnalyze) and an operations surface
// (stats, durable flush).
//
// The Server side hosts a *backend.Backend — typically the sharded, durable
// backend inside a mintd daemon. The Client side is one multiplexed
// connection; it implements collector.Sink, so the existing agents,
// collectors and async reporters ship their reports to a remote backend with
// no changes to the ingest pipeline, and it implements the query surface the
// mint.Cluster read path uses, which is how mint.Dial returns a
// Cluster-compatible remote handle.
//
// # Framing
//
// After a 5-byte handshake (4-byte magic "MINT", 1-byte protocol version,
// sent by the client and answered by the server with its own preamble), the
// connection carries frames in both directions:
//
//	[1-byte type][8-byte big-endian request ID][4-byte big-endian length][payload]
//
// Both sides read frames with readFrameHeader and readFramePayload, which
// grow the payload buffer as bytes arrive rather than to the length a header
// claims. Payload encodings follow the wire package's layout conventions
// (uvarint lengths, zigzag varints, fixed field order, no tags). The request
// ID multiplexes the stream: a client may have many requests in flight on
// its connection, the server may answer them out of order (each response
// echoes the ID of the request it answers), and fire-and-forget ingest
// writes pipeline without waiting. Responses to ingest envelopes stay
// ordered per connection so report application order matches a serial
// client.
//
// # Failure semantics
//
// A malformed frame or handshake terminates the connection: a server that
// rejects a handshake answers with its own preamble (so a version-mismatched
// peer can say which versions disagreed) and closes. Connection-level I/O
// errors are transient: the failed connection closes, its in-flight
// synchronous calls retry, and the client's maintenance loop redials with
// exponential backoff and jitter. Coalesced ingest envelopes carry a
// client-session and sequence ID and are journaled in the client until
// acknowledged; on reconnect the journal replays in order against the
// server's per-session dedup window, so a retried envelope is applied exactly
// once. Protocol violations and decode desyncs are fatal and latch
// client-wide (a broken peer cannot be retried into correctness), and
// server-side application errors (a durable-flush I/O failure) travel back
// as error frames without poisoning the connection. An overloaded server
// answers ingest with a busy frame instead of queueing without bound; the
// client backs off and replays.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol identity. The magic guards against pointing a Mint client at an
// arbitrary TCP service (or vice versa); the version gates incompatible
// framing or codec changes.
const (
	// Magic opens every connection, client-first.
	Magic = "MINT"
	// ProtoVersion is the protocol generation this package speaks; any
	// other is rejected at the handshake. Version 6 added the journal head
	// to the envelope header, so a server that does not know a session
	// opens its window where the client's unacknowledged envelopes start
	// instead of at whichever envelope happens to arrive first.
	ProtoVersion = 6
)

// MaxFrameBytes bounds a frame payload (256 MB). A length beyond it is
// treated as a malformed frame, so a corrupt or hostile peer cannot drive an
// unbounded allocation.
const MaxFrameBytes = 1 << 28

// Request frame types. 0x02 and 0x03 (one report batch, one sampling mark
// per frame) are retired in favour of envelopes; a server answers them as
// unknown types, so they must not be reused within this protocol version.
const (
	reqPing           = 0x01 // empty payload; respOK
	reqQuery          = 0x04 // traceID; respQueryResult
	reqQueryMany      = 0x05 // id list; respQueryMany
	reqBatchAnalyze   = 0x06 // id list; respBatchStats
	reqFindTraces     = 0x07 // filter; respFound
	reqFindAnalyze    = 0x08 // filter; respFindAnalyze
	reqStats          = 0x09 // empty payload; respStats
	reqFlush          = 0x0A // empty payload; respOK (durable flush)
	reqEnvelope       = 0x0B // sequenced wire envelope of coalesced ingest ops; respOK/respBusy
	reqFindCandidates = 0x0C // filter; respFound (approximate side only)
)

// Response frame types.
const (
	respOK          = 0x81 // empty payload
	respErr         = 0x82 // error string
	respQueryResult = 0x83
	respQueryMany   = 0x84
	respBatchStats  = 0x85
	respFound       = 0x86
	respFindAnalyze = 0x87
	respStats       = 0x88
	// respBusy answers an ingest frame the server shed instead of queueing
	// (bounded per-connection ingest queue full, or an envelope that arrived
	// ahead of an unacknowledged predecessor). Its payload is a uvarint
	// retry-after hint in milliseconds; the client keeps the envelope
	// journaled and replays it after the delay.
	respBusy = 0x89
)

// envelopeHeaderBytes is the fixed prefix of every reqEnvelope payload: an
// 8-byte big-endian client-session ID, an 8-byte big-endian sequence number
// and the 8-byte big-endian journal head, all assigned by the client.
// Sequence numbers start at 1 and increment per envelope; the head is the
// lowest sequence the client still holds unacknowledged when it sends, so
// head <= sequence. The server applies a session's envelopes in sequence
// order exactly once (duplicates acknowledge without re-applying, gaps answer
// busy so the client replays in order); a session it does not know opens at
// the head, so an envelope that overtook a shed predecessor waits for it.
const envelopeHeaderBytes = 24

// ErrProtocol reports a violation of the framing or handshake rules (bad
// magic, version mismatch, unknown frame type, oversized frame). Errors wrap
// it.
var ErrProtocol = errors.New("rpc: protocol error")

// frameHeaderBytes is the fixed per-frame header size: type byte, 64-bit
// request ID, 32-bit payload length.
const frameHeaderBytes = 13

// readChunkBytes is the largest single payload-buffer growth step readFrame
// takes before the corresponding bytes have actually arrived. A hostile
// 13-byte header declaring a near-MaxFrameBytes length can therefore cost at
// most one spare megabyte up front; large allocations only happen after the
// peer has really sent the bytes that justify them.
const readChunkBytes = 1 << 20

// readFrame reads one frame from r, enforcing MaxFrameBytes. buf is an
// optional reusable payload buffer; the returned payload aliases it when it
// is large enough.
func readFrame(r io.Reader, buf []byte) (typ byte, id uint64, payload, newBuf []byte, err error) {
	typ, id, n, err := readFrameHeader(r)
	if err != nil {
		return 0, 0, nil, buf, err
	}
	payload, newBuf, err = readFramePayload(r, n, buf)
	return typ, id, payload, newBuf, err
}

// readFrameHeader reads one frame header. A declared length past
// MaxFrameBytes is an ErrProtocol error that still reports the request ID,
// so the server can say why it drops the connection.
func readFrameHeader(r io.Reader) (typ byte, id uint64, n uint32, err error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	id = binary.BigEndian.Uint64(hdr[1:9])
	n = binary.BigEndian.Uint32(hdr[9:13])
	if n > MaxFrameBytes {
		return 0, id, 0, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	return hdr[0], id, n, nil
}

// readFramePayload reads the n-byte payload that follows a frame header.
// Payloads larger than buf are read in bounded chunks with geometric buffer
// growth, so the allocation tracks the bytes received instead of the length
// the header claims.
func readFramePayload(r io.Reader, n uint32, buf []byte) (payload, newBuf []byte, err error) {
	if uint32(cap(buf)) >= n {
		payload = buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, buf, fmt.Errorf("rpc: truncated frame: %w", err)
		}
		return payload, buf, nil
	}
	payload = buf[:0]
	remaining := int(n)
	for remaining > 0 {
		if cap(payload) == len(payload) {
			newCap := min(max(2*cap(payload), readChunkBytes), int(n))
			grown := make([]byte, len(payload), newCap)
			copy(grown, payload)
			payload = grown
		}
		step := min(cap(payload)-len(payload), remaining)
		chunk := payload[len(payload) : len(payload)+step]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, payload, fmt.Errorf("rpc: truncated frame: %w", err)
		}
		payload = payload[:len(payload)+step]
		remaining -= step
	}
	return payload, payload, nil
}

// appendFrame appends one frame to dst with the body encoded in place:
// reserve the header, encode, backfill the length. No intermediate body
// allocation or copy — both sides reuse their frame buffers.
func appendFrame(dst []byte, typ byte, id uint64, body func([]byte) []byte) []byte {
	dst = append(dst, typ, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	start := len(dst)
	binary.BigEndian.PutUint64(dst[start-12:start-4], id)
	if body != nil {
		dst = body(dst)
	}
	binary.BigEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// handshake is the 5-byte connection preamble.
func handshakeBytes() []byte {
	return append([]byte(Magic), ProtoVersion)
}

// checkHandshake validates a received preamble.
func checkHandshake(b []byte) error {
	if string(b[:len(Magic)]) != Magic {
		return fmt.Errorf("%w: bad magic %q", ErrProtocol, b[:len(Magic)])
	}
	if b[len(Magic)] != ProtoVersion {
		return fmt.Errorf("%w: peer speaks protocol version %d, want %d",
			ErrProtocol, b[len(Magic)], ProtoVersion)
	}
	return nil
}
