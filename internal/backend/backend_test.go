package backend

import (
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/bloom"
	"repro/internal/parser"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wire"
)

// harness builds one agent + backend pair and pipes reports manually.
type harness struct {
	a *agent.Agent
	b *Backend
}

func newHarness() *harness {
	return &harness{a: agent.New("n1", agent.Config{DisableSamplers: true}), b: New(0)}
}

func (h *harness) ingest(st *trace.SubTrace) {
	h.a.Ingest(st)
}

func (h *harness) flush() {
	sp, tp := h.a.DrainPatternDeltas()
	h.b.AcceptPatterns(&wire.PatternReport{Node: "n1", SpanPatterns: sp, TopoPatterns: tp})
	h.a.UploadBloomDeltas(func(patternID string, delta *bloom.Filter) {
		h.b.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: patternID, Filter: delta}, false)
	})
}

var sqlSeq int

func st(traceID string, dur int64) *trace.SubTrace {
	sqlSeq++
	spans := []*trace.Span{
		{TraceID: traceID, SpanID: traceID + "-r", Service: "svc", Node: "n1",
			Operation: "handle", Kind: trace.KindServer, StartUnix: 1, Duration: dur, Status: trace.StatusOK,
			Attributes: map[string]trace.AttrValue{
				"sql.query": trace.Str(fmt.Sprintf("SELECT * FROM t WHERE id=%d", sqlSeq)),
			}},
	}
	return &trace.SubTrace{TraceID: traceID, Node: "n1", Spans: spans}
}

// encodedFilterBytes sums what the stored filters encode to — what the Bloom
// component of StorageBytes must equal at all times.
func encodedFilterBytes(b *Backend) int64 {
	var n int64
	for _, s := range b.shards {
		s.mu.Lock()
		for _, seg := range s.segments {
			n += int64(len(seg.filter.AppendMarshal(nil)))
		}
		s.mu.Unlock()
	}
	return n
}

func TestQueryMissWhenUnknown(t *testing.T) {
	h := newHarness()
	if r := h.b.Query("nope"); r.Kind != Miss {
		t.Fatalf("unknown trace should miss, got %v", r.Kind)
	}
	h.ingest(st("t1", 3000))
	h.flush()
	if r := h.b.Query("definitely-not-there"); r.Kind != Miss {
		t.Fatalf("foreign ID should miss, got %v", r.Kind)
	}
}

func TestQueryPartialHitApproximateTrace(t *testing.T) {
	h := newHarness()
	for i := 0; i < 20; i++ {
		h.ingest(st(fmt.Sprintf("t%d", i), 3000))
	}
	h.flush()
	r := h.b.Query("t7")
	if r.Kind != PartialHit {
		t.Fatalf("expected partial hit, got %v", r.Kind)
	}
	if len(r.Trace.Spans) != 1 {
		t.Fatalf("approximate trace spans = %d", len(r.Trace.Spans))
	}
	sp := r.Trace.Spans[0]
	if sp.Service != "svc" || sp.Operation != "handle" {
		t.Fatalf("approximate span metadata wrong: %+v", sp)
	}
	// Variables are masked; duration is a bucket representative.
	if sp.Attributes["sql.query"].Str == "" {
		t.Fatal("approximate span should show the attribute pattern")
	}
	if sp.Duration <= 0 {
		t.Fatal("approximate span should carry a representative duration")
	}
}

func TestQueryExactHitAfterParams(t *testing.T) {
	h := newHarness()
	sub := st("hot", 2987)
	origSQL := sub.Spans[0].Attributes["sql.query"].Str
	h.ingest(sub)
	h.flush()
	spans, _ := h.a.TakeParams("hot")
	h.b.AcceptParams(&wire.ParamsReport{Node: "n1", TraceID: "hot", Spans: spans})
	h.b.MarkSampled("hot", "test")
	r := h.b.Query("hot")
	if r.Kind != ExactHit {
		t.Fatalf("expected exact hit, got %v", r.Kind)
	}
	got := r.Trace.Spans[0]
	if got.Attributes["sql.query"].Str != origSQL {
		t.Fatalf("exact reconstruction: %q != %q", got.Attributes["sql.query"].Str, origSQL)
	}
	if got.Duration != 2987 {
		t.Fatalf("duration = %d", got.Duration)
	}
}

// TestParamsApplyIsIdempotent: a span already stored for its (trace, node)
// is not stored again, whether it comes back in a later report or twice in
// one, and a report that adds nothing leaves the shard and its WAL alone.
func TestParamsApplyIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	b := New(0)
	if err := b.OpenPersistence(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	span := func(id string) *parser.ParsedSpan {
		return &parser.ParsedSpan{PatternID: "sp", TraceID: "tr", SpanID: id, AttrParams: [][]string{{id}}}
	}
	report := func(ids ...string) *wire.ParamsReport {
		r := &wire.ParamsReport{Node: "n1", TraceID: "tr"}
		for _, id := range ids {
			r.Spans = append(r.Spans, span(id))
		}
		return r
	}
	s := b.shards[0]
	type state struct {
		spans, bytes, at, epoch, wal int64
	}
	now := func() state {
		s.mu.Lock()
		defer s.mu.Unlock()
		w := &b.persist.wal
		w.mu.Lock()
		defer w.mu.Unlock()
		return state{int64(len(s.params["tr"]["n1"])), s.storageParams, s.paramsAt["tr"], int64(s.epoch.Load()), w.bytes}
	}
	clock := int64(1)
	b.SetTimeSource(func() int64 { return clock })

	b.AcceptParams(report("a", "b", "a"))
	first := now()
	if want := int64(span("a").Size() + span("b").Size()); first.spans != 2 || first.bytes != want {
		t.Fatalf("report with a repeated span stored %d spans in %d B, want 2 in %d B", first.spans, first.bytes, want)
	}
	clock++
	b.AcceptParams(report("b", "a"))
	if got := now(); got != first {
		t.Fatalf("a report of stored spans changed the shard: %+v, was %+v", got, first)
	}
	b.AcceptParams(report("b", "c"))
	if got := now(); got.spans != 3 || got.bytes != first.bytes+int64(span("c").Size()) || got.at != clock ||
		got.epoch == first.epoch || got.wal == first.wal {
		t.Fatalf("a report adding one span left %+v, was %+v", got, first)
	}
	want := now()
	if err := b.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	reopened := New(0)
	if err := reopened.OpenPersistence(PersistConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer reopened.ClosePersistence()
	if _, _, _, params := reopened.StorageBytes(); params != want.bytes {
		t.Fatalf("reopened store holds %d params bytes, want %d", params, want.bytes)
	}
}

func TestSampledWithoutParamsFallsBack(t *testing.T) {
	h := newHarness()
	h.ingest(st("t1", 3000))
	h.flush()
	h.b.MarkSampled("t1", "reason")
	// Params never arrived: the query falls back to the approximate trace.
	if r := h.b.Query("t1"); r.Kind != PartialHit {
		t.Fatalf("want partial fallback, got %v", r.Kind)
	}
	if !h.b.Sampled("t1") || h.b.Sampled("t2") {
		t.Fatal("Sampled bookkeeping wrong")
	}
}

func TestStorageAccounting(t *testing.T) {
	h := newHarness()
	h.ingest(st("t1", 3000))
	h.flush()
	total, pats, blooms, params := h.b.StorageBytes()
	if pats <= 0 || blooms <= 0 || params != 0 {
		t.Fatalf("storage = pats %d blooms %d params %d", pats, blooms, params)
	}
	if total != pats+blooms+params {
		t.Fatal("total must be the sum of parts")
	}
	// A periodic delta merges into the live segment: storage moves by the
	// difference between the merged filter's encoded sizes, not by a filter.
	h.ingest(st("t2", 3000))
	h.flush()
	_, _, blooms2, _ := h.b.StorageBytes()
	if blooms2 != encodedFilterBytes(h.b) || blooms2 <= blooms || blooms2 >= 2*blooms {
		t.Fatalf("bloom storage after delta merge: %d -> %d, stored filters encode to %d",
			blooms, blooms2, encodedFilterBytes(h.b))
	}
	// Immutable (full) filters append.
	f := bloom.New(64, 0.01)
	f.Add("x")
	h.b.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: "p", Filter: f}, true)
	_, _, blooms3, _ := h.b.StorageBytes()
	if blooms3 <= blooms2 {
		t.Fatal("immutable filter should add storage")
	}
}

func TestDuplicatePatternsStoredOnce(t *testing.T) {
	b := New(0)
	pat := &topo.Pattern{ID: "x", Node: "n1", Entry: "e"}
	r := &wire.PatternReport{Node: "n1", TopoPatterns: []*topo.Pattern{pat}}
	b.AcceptPatterns(r)
	_, before, _, _ := b.StorageBytes()
	b.AcceptPatterns(r)
	_, after, _, _ := b.StorageBytes()
	if before != after {
		t.Fatal("duplicate pattern must not grow storage")
	}
	if b.TopoPatternCount() != 1 {
		t.Fatalf("count = %d", b.TopoPatternCount())
	}
}

func TestCrossNodeStitching(t *testing.T) {
	// Two agents: frontend calls backend. The approximate trace should
	// attach the downstream segment under the upstream exit span.
	fe := agent.New("fe", agent.Config{DisableSamplers: true})
	be := agent.New("be", agent.Config{DisableSamplers: true})
	b := New(0)

	feSpans := []*trace.Span{
		{TraceID: "t1", SpanID: "r", Service: "frontend", Node: "fe",
			Operation: "GET /", Kind: trace.KindServer, StartUnix: 1, Duration: 5000, Status: trace.StatusOK},
		{TraceID: "t1", SpanID: "c", ParentID: "r", Service: "frontend", Node: "fe",
			Operation: "call api", Kind: trace.KindClient, StartUnix: 2, Duration: 3000, Status: trace.StatusOK,
			Attributes: map[string]trace.AttrValue{"peer.service": trace.Str("api")}},
	}
	beSpans := []*trace.Span{
		{TraceID: "t1", SpanID: "s", ParentID: "c", Service: "api", Node: "be",
			Operation: "Handle", Kind: trace.KindServer, StartUnix: 3, Duration: 2500, Status: trace.StatusOK},
	}
	fe.Ingest(&trace.SubTrace{TraceID: "t1", Node: "fe", Spans: feSpans})
	be.Ingest(&trace.SubTrace{TraceID: "t1", Node: "be", Spans: beSpans})
	for _, a := range []*agent.Agent{fe, be} {
		sp, tp := a.DrainPatternDeltas()
		b.AcceptPatterns(&wire.PatternReport{Node: a.Node, SpanPatterns: sp, TopoPatterns: tp})
		a.UploadBloomDeltas(func(patternID string, delta *bloom.Filter) {
			b.AcceptBloom(&wire.BloomReport{Node: a.Node, PatternID: patternID, Filter: delta}, false)
		})
	}
	r := b.Query("t1")
	if r.Kind != PartialHit {
		t.Fatalf("query = %v", r.Kind)
	}
	if len(r.Trace.Spans) != 3 {
		t.Fatalf("approximate trace should cover both segments, got %d spans", len(r.Trace.Spans))
	}
	// The api segment's root must hang under the frontend's client span.
	byService := map[string]*trace.Span{}
	for _, s := range r.Trace.Spans {
		byService[s.Service+"/"+s.Operation] = s
	}
	apiRoot := byService["api/Handle"]
	client := byService["frontend/call api"]
	if apiRoot == nil || client == nil {
		t.Fatalf("segments missing: %+v", byService)
	}
	if apiRoot.ParentID != client.SpanID {
		t.Fatalf("cross-node stitching failed: api parent %q, client span %q", apiRoot.ParentID, client.SpanID)
	}
}

func TestHitKindString(t *testing.T) {
	if Miss.String() != "miss" || PartialHit.String() != "partial" || ExactHit.String() != "exact" {
		t.Fatal("HitKind strings")
	}
}

// TestLiveSegmentSurvivesAgentRestart: a second agent generation for the same
// (node, pattern) — a client restarted against a long-lived backend — starts
// from an empty filter. What it uploads is merged into the pair's live
// segment, so trace IDs the first generation mounted keep answering (the
// Bloom no-miss property); replacing the segment, as whole-snapshot uploads
// did, dropped them. It holds through the second generation's fill too: its
// full filter never saw those IDs, so it must not retire the segment that
// holds them.
func TestLiveSegmentSurvivesAgentRestart(t *testing.T) {
	b := New(0)
	cfg := agent.Config{DisableSamplers: true, BloomBufBytes: 64}
	start := func() *agent.Agent {
		a := agent.New("n1", cfg)
		a.OnBloomFull(func(patternID string, f *bloom.Filter) {
			b.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: patternID, Filter: f, Full: true}, true)
		})
		return a
	}
	h := &harness{a: start(), b: b}
	var first []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("gen1-%d", i)
		first = append(first, id)
		h.ingest(st(id, 3000))
	}
	h.flush()
	answers := func(when string) {
		t.Helper()
		for _, id := range first {
			if r := b.Query(id); r.Kind == Miss {
				t.Fatalf("%s: %s, mounted and uploaded by the first agent generation, misses", when, id)
			}
		}
	}
	answers("before the restart")

	h.a = start() // the restart: same node, same pattern, an empty filter
	h.ingest(st("gen2-0", 3000))
	h.flush()
	answers("after the second generation's first upload")
	if r := b.Query("gen2-0"); r.Kind == Miss {
		t.Fatal("the second generation's own upload misses")
	}

	capacity := bloom.New(cfg.BloomBufBytes, bloom.DefaultFPP).Capacity()
	for i := 1; i <= capacity; i++ {
		h.ingest(st(fmt.Sprintf("gen2-%d", i), 3000))
	}
	h.flush()
	answers("after the second generation's filter filled")
	for i := 0; i <= capacity; i++ {
		if r := b.Query(fmt.Sprintf("gen2-%d", i)); r.Kind == Miss {
			t.Fatalf("gen2-%d misses after the fill", i)
		}
	}
	if _, _, blooms, _ := b.StorageBytes(); blooms != encodedFilterBytes(b) {
		t.Fatalf("bloom storage %d, stored filters encode to %d", blooms, encodedFilterBytes(b))
	}
}
