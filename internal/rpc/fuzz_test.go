package rpc

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/wire"
)

// FuzzFrameHeader drives the server's handshake and framing path with
// arbitrary byte streams — torn preambles, truncated 13-byte frame headers,
// headers whose declared length never arrives, hostile lengths past
// MaxFrameBytes. The server must neither panic nor hang: once the peer
// stops sending and closes, ServeConn must return. The same input also runs
// through readFrame directly, which must return an error (or a complete
// frame) without unbounded allocation.
func FuzzFrameHeader(f *testing.F) {
	valid := append([]byte(Magic), ProtoVersion)
	pingFrame := appendFrame(nil, reqPing, 1, nil)
	f.Add([]byte{})
	f.Add([]byte("MI"))                                         // torn preamble
	f.Add([]byte("MINT"))                                       // preamble missing its version byte
	f.Add([]byte("HTTP/1.1 GET /"))                             // wrong protocol entirely
	f.Add(append(append([]byte{}, valid...), pingFrame...))     // well-formed exchange
	f.Add(append(append([]byte{}, valid...), pingFrame[:7]...)) // torn frame header
	f.Add(append(append([]byte{}, valid...),                    // header promising a payload that never comes
		reqEnvelope, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0))
	f.Add(append(append([]byte{}, valid...), // length beyond MaxFrameBytes
		reqQuery, 0, 0, 0, 0, 0, 0, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		// readFrame directly: must not panic, and a hostile declared length
		// must not allocate past the geometric-growth chunk bound before the
		// bytes actually arrive.
		if len(data) > frameHeaderBytes {
			readFrame(bytes.NewReader(data), nil)
		}

		s := NewServer(backend.NewSharded(0, 1))
		cliSide, srvSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			s.ServeConn(srvSide)
			close(done)
		}()
		// Drain whatever the server answers so its writes never block, and
		// feed it the fuzzed stream, then close — a real torn connection.
		go io.Copy(io.Discard, cliSide)
		go func() {
			cliSide.Write(data)
			cliSide.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn hung on a torn or hostile stream")
		}
		cliSide.Close()
	})
}

// FuzzServerHandle sends an arbitrary request type and payload into
// Server.handle — not safeHandle, so a panic fails the target — over a
// fresh backend. Every input, whatever its type byte, envelope header,
// filter or ID list, must produce exactly one well-formed response frame for
// its request ID, whose payload the client's decoder for that response type
// consumes exactly.
func FuzzServerHandle(f *testing.F) {
	ids := appendStringSlice(nil, []string{"trace-9", "t1", "t1"})
	filter := appendFilter(nil, testFilter())
	for _, seed := range []struct {
		typ     byte
		payload []byte
	}{
		{reqPing, nil},
		{reqEnvelope, mkEnvelope(9, 1, "trace-9")},
		{reqEnvelope, mkEnvelope(0, 1, "trace-9")},
		{reqEnvelope, []byte{1, 2, 3}},
		{reqQuery, wire.AppendString(nil, "trace-9")},
		{reqQueryMany, ids},
		{reqBatchAnalyze, ids},
		{reqFindTraces, filter},
		{reqFindAnalyze, filter},
		{reqStats, nil},
		{reqFlush, nil},
		{0x02, nil},    // retired
		{0x0C, filter}, // retired
	} {
		f.Add(seed.typ, seed.payload)
	}

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		const id = 0xC0FFEE
		s := NewServer(backend.NewSharded(0, 1))
		resp := s.handle(nil, typ, id, payload)
		rtyp, rid, body, _, err := readFrame(bytes.NewReader(resp), nil)
		if err != nil {
			t.Fatalf("request 0x%02x: response is not a frame: %v", typ, err)
		}
		if rid != id || len(resp) != frameHeaderBytes+len(body) {
			t.Fatalf("request 0x%02x: answered id %d in %d bytes, want one frame for id %d",
				typ, rid, len(resp), id)
		}
		d := wire.NewDecoder(body)
		switch rtyp {
		case respOK:
		case respErr:
			d.Str()
		case respQueryResult:
			decodeQueryResult(d)
		case respQueryMany:
			for n := d.Count(); n > 0 && d.Err() == nil; n-- {
				decodeQueryResult(d)
			}
		case respBatchStats:
			decodeBatchStats(d)
			d.Uvarint()
		case respFound:
			decodeFoundTraces(d)
		case respFindAnalyze:
			decodeBatchStats(d)
			decodeFoundTraces(d)
		case respStats:
			decodeStats(d)
		default:
			t.Fatalf("request 0x%02x: answered unknown response type 0x%02x", typ, rtyp)
		}
		if err := d.Done(); err != nil {
			t.Fatalf("request 0x%02x: response 0x%02x does not decode: %v", typ, rtyp, err)
		}
	})
}

// FuzzResponseDecode runs arbitrary bytes through each client-side response
// decoder. Each must return a value or set the decoder's error, never panic;
// and a payload a decoder consumes exactly must re-encode to a fixed point
// (encode, decode, encode gives the same bytes).
func FuzzResponseDecode(f *testing.F) {
	f.Add(appendQueryResult(nil, backend.QueryResult{Kind: backend.ExactHit, Reason: "symptom", Trace: testTrace()}))
	f.Add(appendQueryResult(nil, backend.QueryResult{Kind: backend.Miss}))
	f.Add(appendFoundTraces(nil, []backend.FoundTrace{{TraceID: "t1", Kind: backend.PartialHit, Spans: 3}}))
	f.Add(appendBatchStats(nil, testBatchStats()))
	f.Add(appendStats(nil, Stats{StorageBytes: 9000, PatternBytes: 10, SpanPatterns: 4, BackendShards: 2}))
	f.Add([]byte{})

	codecs := []struct {
		name string
		// roundTrip decodes one value and, if that succeeded, re-encodes it.
		roundTrip func(d *wire.Decoder) []byte
	}{
		{"query result", func(d *wire.Decoder) []byte {
			r := decodeQueryResult(d)
			return reencode(d, func() []byte { return appendQueryResult(nil, r) })
		}},
		{"found traces", func(d *wire.Decoder) []byte {
			fts := decodeFoundTraces(d)
			return reencode(d, func() []byte { return appendFoundTraces(nil, fts) })
		}},
		{"batch stats", func(d *wire.Decoder) []byte {
			st := decodeBatchStats(d)
			return reencode(d, func() []byte { return appendBatchStats(nil, st) })
		}},
		{"stats", func(d *wire.Decoder) []byte {
			st := decodeStats(d)
			return reencode(d, func() []byte { return appendStats(nil, st) })
		}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			enc := c.roundTrip(wire.NewDecoder(data))
			if enc == nil {
				continue
			}
			d := wire.NewDecoder(enc)
			if again := c.roundTrip(d); !bytes.Equal(enc, again) {
				t.Fatalf("%s: re-encoding is not a fixed point (%v):\n %x\n %x", c.name, d.Err(), enc, again)
			}
		}
	})
}

// reencode returns encode's bytes when d decoded its value exactly, else
// nil.
func reencode(d *wire.Decoder, encode func() []byte) []byte {
	if d.Done() != nil {
		return nil
	}
	return encode()
}
