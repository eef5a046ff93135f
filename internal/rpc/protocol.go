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
// connection; it implements collector.Sink, so the existing agents and
// collectors ship their reports to a remote backend with no changes to the ingest pipeline, and it implements the query surface the
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
// writes pipeline without waiting. The server applies a connection's
// ingest envelopes in arrival order, one at a time, so report application
// order matches a serial client.
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
// acknowledged; one goroutine sends them in sequence order, and on reconnect
// the journal replays in order against the server's per-session dedup
// window, so a retried envelope is applied exactly once. Protocol violations
// and decode desyncs are fatal and latch client-wide (a broken peer cannot
// be retried into correctness), and server-side application errors (a
// durable-flush I/O failure) travel back as error frames without poisoning
// the connection. Overload has one limit: a server that falls behind stops
// reading, TCP flow control slows the client's journal pump (never the
// caller of an ingest method), and past the journal's byte bound new
// envelopes are dropped and reported through Err.
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
	// other is rejected at the handshake. Version 7 dropped the busy
	// response and the journal head from the envelope header: the server
	// applies envelopes where it reads them, so none arrives ahead of its
	// predecessor.
	ProtoVersion = 7
)

// MaxFrameBytes bounds a frame payload (256 MB). A length beyond it is
// treated as a malformed frame, so a corrupt or hostile peer cannot drive an
// unbounded allocation.
const MaxFrameBytes = 1 << 28

// Request frame types. 0x02 and 0x03 (one report batch, one sampling mark
// per frame) are retired in favour of envelopes, and 0x0C (the approximate
// side of a search, split off by the client) in favour of one FindTraces
// frame; a server answers them as unknown types, so they must not be reused
// within this protocol version. Response type 0x89 (busy) is retired the
// same way.
const (
	reqPing         = 0x01 // empty payload; respOK
	reqQuery        = 0x04 // traceID; respQueryResult
	reqQueryMany    = 0x05 // id list; respQueryMany
	reqBatchAnalyze = 0x06 // id list; respBatchStats
	reqFindTraces   = 0x07 // filter; respFound
	reqFindAnalyze  = 0x08 // filter; respFindAnalyze
	reqStats        = 0x09 // empty payload; respStats
	reqFlush        = 0x0A // empty payload; respOK (durable flush)
	reqEnvelope     = 0x0B // sequenced wire envelope of coalesced ingest ops; respOK
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
)

// envelopeHeaderBytes is the fixed prefix of every reqEnvelope payload: an
// 8-byte big-endian client-session ID and an 8-byte big-endian sequence
// number, both assigned by the client. Sequence numbers start at 1 and
// increment per envelope; the server applies each sequence at most once per
// session (see Server.applyEnvelope).
const envelopeHeaderBytes = 16

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
