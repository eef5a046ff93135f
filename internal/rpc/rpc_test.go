package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/agent"
	"repro/internal/backend"
	"repro/internal/bloom"
	"repro/internal/trace"
	"repro/internal/wire"
)

// testTrace builds a reconstructed-trace value covering every span field the
// codec carries, including numeric and string attributes.
func testTrace() *trace.Trace {
	return &trace.Trace{
		TraceID: "trace-9",
		Spans: []*trace.Span{
			{
				TraceID: "trace-9", SpanID: "s1", Service: "frontend", Node: "node-1",
				Operation: "HTTP GET /", Kind: trace.KindServer, StartUnix: 1000,
				Duration: 250, Status: trace.StatusOK,
				Attributes: map[string]trace.AttrValue{
					"http.url":  trace.Str("/"),
					"http.size": trace.Num(512.5),
				},
			},
			{
				TraceID: "trace-9", SpanID: "s2", ParentID: "s1", Service: "cart",
				Node: "node-2", Operation: "GetCart", Kind: trace.KindClient,
				StartUnix: 1010, Duration: 120, Status: trace.StatusError,
				Attributes: map[string]trace.AttrValue{},
			},
		},
	}
}

func TestQueryResultCodecRoundTrip(t *testing.T) {
	in := backend.QueryResult{Kind: backend.ExactHit, Reason: "symptom", Trace: testTrace()}
	d := wire.NewDecoder(appendQueryResult(nil, in))
	got := decodeQueryResult(d)
	if err := d.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, got)
	}

	miss := backend.QueryResult{Kind: backend.Miss}
	d = wire.NewDecoder(appendQueryResult(nil, miss))
	if got := decodeQueryResult(d); got.Kind != backend.Miss || got.Trace != nil {
		t.Fatalf("miss round trip: %+v", got)
	}
}

// testFilter sets every filter field the codec carries.
func testFilter() backend.Filter {
	return backend.Filter{
		Service:       "checkout",
		Operation:     "HTTP POST /charge",
		ErrorsOnly:    true,
		MinDurationUS: 5000,
		MaxDurationUS: 900000,
		Reason:        "edge-case",
		SampledOnly:   true,
		Candidates:    []string{"t1", "t2", "t3"},
		Limit:         25,
	}
}

func TestFilterCodecRoundTrip(t *testing.T) {
	in := testFilter()
	d := wire.NewDecoder(appendFilter(nil, in))
	got := decodeFilter(d)
	if err := d.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, got)
	}
}

// testBatchStats fills every batch-statistics field the codec carries.
func testBatchStats() *backend.BatchStats {
	return &backend.BatchStats{
		Traces: 7,
		Spans:  40,
		ByService: map[string]*backend.ServiceStats{
			"frontend": {Spans: 7, Errors: 1, TotalDurUS: 9000, MaxDurUS: 3000, DurationsUS: []int64{100, 3000, 5900}},
			"cart":     {Spans: 33, TotalDurUS: 100},
		},
		Edges: map[string]int{"frontend->cart": 6, "cart->redis": 30},
	}
}

func TestBatchStatsCodecRoundTrip(t *testing.T) {
	in := testBatchStats()
	d := wire.NewDecoder(appendBatchStats(nil, in))
	got := decodeBatchStats(d)
	if err := d.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		// Hand-written frame header claiming a payload beyond MaxFrameBytes.
		hdr := []byte{reqPing, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}
		srv.Write(hdr)
	}()
	_, _, _, _, err := readFrame(cli, nil)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversize frame: err = %v, want ErrProtocol", err)
	}
}

// A frame header claiming MaxFrameBytes must cost the server what actually
// arrives, not what the header claims: the payload buffer grows with the
// bytes received, so one hostile 13-byte header cannot allocate 256 MB.
func TestServerFrameHeaderDoesNotPreallocate(t *testing.T) {
	s := NewServer(backend.NewSharded(0, 1))
	cli, srv := net.Pipe()
	defer cli.Close()
	hdr := []byte{reqQuery, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[9:], MaxFrameBytes)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		s.ServeConn(srv)
		close(done)
	}()
	if _, err := cli.Write(handshakeBytes()); err != nil {
		t.Fatalf("write handshake: %v", err)
	}
	if _, err := io.ReadFull(cli, make([]byte, len(Magic)+1)); err != nil {
		t.Fatalf("read the server's preamble: %v", err)
	}
	if _, err := cli.Write(hdr); err != nil {
		t.Fatalf("write header: %v", err)
	}
	cli.Close()
	<-done
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("a %d-byte frame header that never delivered its payload cost %d bytes of allocation",
			frameHeaderBytes, grew)
	}
}

func TestFrameRoundTripCarriesRequestID(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		f := appendFrame(nil, reqQuery, 0xDEADBEEFCAFE, func(b []byte) []byte {
			return wire.AppendString(b, "trace-1")
		})
		srv.Write(f)
	}()
	typ, id, payload, _, err := readFrame(cli, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != reqQuery || id != 0xDEADBEEFCAFE {
		t.Fatalf("frame header: typ=0x%02x id=%#x", typ, id)
	}
	d := wire.NewDecoder(payload)
	if got := d.Str(); got != "trace-1" || d.Done() != nil {
		t.Fatalf("payload: %q", got)
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	if err := checkHandshake([]byte("HTTP1")); !errors.Is(err, ErrProtocol) {
		t.Fatalf("bad magic: err = %v, want ErrProtocol", err)
	}
	if err := checkHandshake([]byte("MINT\x63")); !errors.Is(err, ErrProtocol) {
		t.Fatalf("bad version: err = %v, want ErrProtocol", err)
	}
	if err := checkHandshake(handshakeBytes()); err != nil {
		t.Fatalf("good handshake rejected: %v", err)
	}
}

// startLoopback serves a fresh backend on a loopback port and returns a
// connected client.
func startLoopback(t *testing.T, b *backend.Backend) (*Client, *Server) {
	t.Helper()
	srv := NewServer(b)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, srv
}

// subTrace builds a one-span sub-trace with a variable SQL attribute, the
// same shape the backend package's own tests use.
func subTrace(traceID string, seq int) *trace.SubTrace {
	return &trace.SubTrace{TraceID: traceID, Node: "n1", Spans: []*trace.Span{
		{TraceID: traceID, SpanID: traceID + "-r", Service: "svc", Node: "n1",
			Operation: "handle", Kind: trace.KindServer, StartUnix: 1, Duration: 3000,
			Status: trace.StatusOK,
			Attributes: map[string]trace.AttrValue{
				"sql.query": trace.Str(fmt.Sprintf("SELECT * FROM t WHERE id=%d", seq)),
			}},
	}}
}

func TestClientServerIngestAndQuery(t *testing.T) {
	b := backend.NewSharded(0, 2)
	cli, srv := startLoopback(t, b)

	if err := cli.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// Drive a real agent client-side and ship its reports over the wire —
	// the exact flow a remote collector performs.
	a := agent.New("n1", agent.Config{DisableSamplers: true})
	for i := 0; i < 20; i++ {
		a.Ingest(subTrace(fmt.Sprintf("t%d", i), i))
	}
	sp, tp := a.DrainPatternDeltas()
	cli.AcceptPatterns(&wire.PatternReport{Node: "n1", SpanPatterns: sp, TopoPatterns: tp})
	a.UploadBloomDeltas(func(patternID string, delta *bloom.Filter) {
		cli.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: patternID, Filter: delta}, false)
	})
	cli.MarkSampled("t7", "symptom")
	if spans, ok := a.TakeParams("t7"); ok {
		cli.AcceptParams(&wire.ParamsReport{Node: "n1", TraceID: "t7", Spans: spans})
	}
	// Ingest is fire-and-forget and coalesced; flush it server-side before
	// comparing against direct backend reads.
	if err := cli.Ping(); err != nil {
		t.Fatalf("flush barrier: %v", err)
	}

	// Every read answered over the wire must be byte-identical to the same
	// read asked of the backend directly.
	for _, id := range []string{"t3", "t7", "nope"} {
		direct, remote := b.Query(id), cli.Query(id)
		if !reflect.DeepEqual(direct, remote) {
			t.Fatalf("query %s diverged:\n direct %+v\n remote %+v", id, direct, remote)
		}
	}
	if cli.Query("t7").Kind != backend.ExactHit {
		t.Fatal("sampled trace did not answer exactly over the wire")
	}

	many := cli.QueryMany([]string{"t7", "nope", "t3"})
	if many[0].Kind != backend.ExactHit || many[1].Kind != backend.Miss || many[2].Kind != backend.PartialHit {
		t.Fatalf("QueryMany kinds: %v %v %v", many[0].Kind, many[1].Kind, many[2].Kind)
	}

	ids := []string{"t0", "t1", "t7", "missing"}
	dStats, dMiss := b.BatchQuery(ids)
	rStats, rMiss := cli.BatchQuery(ids)
	if dMiss != rMiss || !reflect.DeepEqual(dStats, rStats) {
		t.Fatalf("BatchQuery diverged: direct (%+v, %d) remote (%+v, %d)", dStats, dMiss, rStats, rMiss)
	}

	f := backend.Filter{Service: "svc", Candidates: []string{"t0", "t1", "t2", "t7"}}
	if d, r := b.FindTraces(f), cli.FindTraces(f); !reflect.DeepEqual(d, r) {
		t.Fatalf("FindTraces diverged:\n direct %+v\n remote %+v", d, r)
	}
	dfa, dfound := b.FindAnalyze(f)
	rfa, rfound := cli.FindAnalyze(f)
	if !reflect.DeepEqual(dfa, rfa) || !reflect.DeepEqual(dfound, rfound) {
		t.Fatalf("FindAnalyze diverged")
	}

	st, err := cli.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.BackendShards != 2 || st.StorageBytes <= 0 || st.SpanPatterns == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if srv.Requests() == 0 || srv.BytesIn() == 0 {
		t.Fatal("server counters did not move")
	}
}

func TestClientStickyErrorAfterServerClose(t *testing.T) {
	b := backend.NewSharded(0, 1)
	cli, srv := startLoopback(t, b)
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	srv.Close()
	if res := cli.Query("x"); res.Kind != backend.Miss {
		t.Fatalf("query against dead server: %+v", res)
	}
	if cli.Err() == nil {
		t.Fatal("transport error did not latch")
	}
	first := cli.Err()
	cli.MarkSampled("x", "y") // must fail fast, not hang or panic
	if cli.Err() != first {
		t.Fatalf("sticky error changed: %v -> %v", first, cli.Err())
	}
}
