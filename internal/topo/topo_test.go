package topo

import (
	"fmt"
	"testing"

	"repro/internal/bloom"
	"repro/internal/parser"
	"repro/internal/trace"
)

// buildSubTrace constructs the Fig. 8 sub-trace: root -> {A, B}, A -> {C}.
func buildSubTrace(traceID string) (*trace.SubTrace, map[string]*parser.ParsedSpan) {
	spans := []*trace.Span{
		{TraceID: traceID, SpanID: "r", Service: "frontend", Operation: "root", Kind: trace.KindServer, StartUnix: 1},
		{TraceID: traceID, SpanID: "a", ParentID: "r", Service: "frontend", Operation: "A", Kind: trace.KindClient, StartUnix: 2},
		{TraceID: traceID, SpanID: "b", ParentID: "r", Service: "frontend", Operation: "B", Kind: trace.KindInternal, StartUnix: 3},
		{TraceID: traceID, SpanID: "c", ParentID: "a", Service: "frontend", Operation: "C", Kind: trace.KindInternal, StartUnix: 4},
	}
	st := &trace.SubTrace{TraceID: traceID, Node: "n1", Spans: spans}
	parsed := map[string]*parser.ParsedSpan{}
	for _, s := range spans {
		parsed[s.SpanID] = &parser.ParsedSpan{
			PatternID: "pat-" + s.Operation,
			TraceID:   traceID, SpanID: s.SpanID, ParentID: s.ParentID,
		}
	}
	return st, parsed
}

func TestEncodeTopology(t *testing.T) {
	st, parsed := buildSubTrace("t1")
	enc := Encode(st, parsed)
	p := enc.Pattern
	if p.Entry != "pat-root" {
		t.Fatalf("entry = %q", p.Entry)
	}
	if len(p.Edges) != 2 {
		t.Fatalf("edges = %+v", p.Edges)
	}
	// Pre-order: root -> {A, B}, then A -> {C}.
	if p.Edges[0].Parent != "pat-root" || len(p.Edges[0].Children) != 2 {
		t.Fatalf("edge0 = %+v", p.Edges[0])
	}
	if p.Edges[0].Children[0] != "pat-A" || p.Edges[0].Children[1] != "pat-B" {
		t.Fatalf("children order = %v", p.Edges[0].Children)
	}
	if p.Edges[1].Parent != "pat-A" || p.Edges[1].Children[0] != "pat-C" {
		t.Fatalf("edge1 = %+v", p.Edges[1])
	}
	// The client span is an exit.
	if len(p.Exits) != 1 || p.Exits[0] != "pat-A" {
		t.Fatalf("exits = %v", p.Exits)
	}
	// Spans come back in pre-order.
	order := []string{"r", "a", "c", "b"}
	for i, ps := range enc.Spans {
		if ps.SpanID != order[i] {
			t.Fatalf("span order = %v at %d, want %v", ps.SpanID, i, order)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	st, parsed := buildSubTrace("t1")
	k1 := Encode(st, parsed).Pattern.Key()
	k2 := Encode(st, parsed).Pattern.Key()
	if k1 != k2 {
		t.Fatal("encoding must be deterministic")
	}
}

func TestMountDedupesPatterns(t *testing.T) {
	lib := NewLibrary(512, 0.01)
	for i := 0; i < 100; i++ {
		st, parsed := buildSubTrace(fmt.Sprintf("t%d", i))
		enc := Encode(st, parsed)
		pat, isNew := lib.Mount(enc.Pattern, st.TraceID)
		if (i == 0) != isNew {
			t.Fatalf("i=%d isNew=%v", i, isNew)
		}
		if pat.ID == "" {
			t.Fatal("mounted pattern must have ID")
		}
	}
	if lib.Len() != 1 {
		t.Fatalf("library has %d patterns, want 1", lib.Len())
	}
	if lib.Total() != 100 {
		t.Fatalf("total = %d", lib.Total())
	}
}

func TestMountedTraceIDsInFilter(t *testing.T) {
	lib := NewLibrary(512, 0.01)
	var patID string
	for i := 0; i < 50; i++ {
		st, parsed := buildSubTrace(fmt.Sprintf("t%d", i))
		enc := Encode(st, parsed)
		pat, _ := lib.Mount(enc.Pattern, st.TraceID)
		patID = pat.ID
	}
	deltas := lib.TakeFilterDeltas()
	if len(deltas) != 1 || deltas[0].PatternID != patID {
		t.Fatalf("deltas = %+v", deltas)
	}
	for i := 0; i < 50; i++ {
		if !deltas[0].Filter.Contains(fmt.Sprintf("t%d", i)) {
			t.Fatalf("trace t%d missing from filter — no-miss property violated", i)
		}
	}
}

// A delta holds what was mounted since the previous one, and nothing else:
// an untouched filter uploads nothing, and an ID crosses the network once.
func TestFilterDeltasHoldOnlyWhatWasGained(t *testing.T) {
	lib := NewLibrary(512, 0.01)
	st, parsed := buildSubTrace("t1")
	lib.Mount(Encode(st, parsed).Pattern, "t1")
	first := lib.TakeFilterDeltas()
	if len(first) != 1 || first[0].Filter.Count() != 1 || !first[0].Filter.Contains("t1") {
		t.Fatalf("first delta: %+v", first)
	}
	if n := len(lib.TakeFilterDeltas()); n != 0 {
		t.Fatalf("no new mounts, but %d deltas", n)
	}
	lib.Mount(Encode(st, parsed).Pattern, "t2")
	second := lib.TakeFilterDeltas()
	if len(second) != 1 || second[0].Filter.Count() != 1 || !second[0].Filter.Contains("t2") {
		t.Fatalf("second delta: %+v", second)
	}
	if second[0].Filter.Contains("t1") {
		t.Fatal("second delta re-sends t1, uploaded with the first")
	}
	if first[0].Filter.Contains("t2") {
		t.Fatal("a delta already handed over changed with a later mount")
	}
}

// A filter that fills ships whole, and takes the pending delta with it: the
// IDs mounted since the last periodic upload are in the full filter, so the
// next delta starts from the first mount after the fill.
func TestFullFilterAbsorbsPendingDelta(t *testing.T) {
	lib := NewLibrary(64, 0.01)
	var fulls []*bloom.Filter
	lib.OnFilterFull(func(_ string, f *bloom.Filter) { fulls = append(fulls, f) })
	st, parsed := buildSubTrace("seed")
	pat := Encode(st, parsed).Pattern
	capacity := bloom.New(64, 0.01).Capacity()
	lib.Mount(pat, "early")
	lib.TakeFilterDeltas()
	for i := 1; i < capacity; i++ {
		lib.Mount(pat, fmt.Sprintf("t%d", i))
	}
	if len(fulls) != 1 || fulls[0].Count() != capacity || !fulls[0].Contains("early") || !fulls[0].Contains("t1") {
		t.Fatalf("full filters after %d mounts: %d", capacity, len(fulls))
	}
	if n := len(lib.TakeFilterDeltas()); n != 0 {
		t.Fatalf("the fill left %d deltas pending; the full filter already carries them", n)
	}
	lib.Mount(pat, "late")
	next := lib.TakeFilterDeltas()
	if len(next) != 1 || next[0].Filter.Count() != 1 || !next[0].Filter.Contains("late") {
		t.Fatalf("delta after the fill: %+v", next)
	}
}

func TestOnFilterFull(t *testing.T) {
	lib := NewLibrary(64, 0.01) // tiny capacity
	var fullID string
	var snapshot *bloom.Filter
	lib.OnFilterFull(func(id string, f *bloom.Filter) {
		fullID = id
		snapshot = f
	})
	st, parsed := buildSubTrace("seed")
	pat, _ := lib.Mount(Encode(st, parsed).Pattern, "seed")
	cap := bloom.New(64, 0.01).Capacity()
	for i := 0; i < cap+5; i++ {
		lib.Mount(Encode(st, parsed).Pattern, fmt.Sprintf("t%d", i))
	}
	if fullID != pat.ID {
		t.Fatalf("full callback pattern = %q, want %q", fullID, pat.ID)
	}
	if snapshot == nil || snapshot.Count() == 0 {
		t.Fatal("full callback should carry the filled filter")
	}
}

func TestRarity(t *testing.T) {
	lib := NewLibrary(512, 0.01)
	stA, parsedA := buildSubTrace("a")
	encA := Encode(stA, parsedA)
	for i := 0; i < 99; i++ {
		lib.Mount(encA.Pattern, fmt.Sprintf("a%d", i))
	}
	// A different shape: drop one span.
	stB, parsedB := buildSubTrace("b")
	stB.Spans = stB.Spans[:2]
	encB := Encode(stB, parsedB)
	patB, _ := lib.Mount(encB.Pattern, "b0")

	if r := lib.Rarity(patB.ID); r >= 0.05 {
		t.Fatalf("rare pattern share = %f, want < 0.05", r)
	}
	if lib.Rarity("unknown") != 0 {
		t.Fatal("unknown pattern rarity should be 0")
	}
	if lib.Matches(patB.ID) != 1 {
		t.Fatalf("matches = %d", lib.Matches(patB.ID))
	}
}

func TestPatternSizeAndSnapshot(t *testing.T) {
	lib := NewLibrary(512, 0.01)
	st, parsed := buildSubTrace("t")
	lib.Mount(Encode(st, parsed).Pattern, "t")
	if lib.Size() <= 0 {
		t.Fatal("pattern size should be positive")
	}
	if len(lib.Snapshot()) != 1 {
		t.Fatal("snapshot should list the pattern")
	}
	if _, ok := lib.Get(lib.Snapshot()[0].ID); !ok {
		t.Fatal("Get by ID failed")
	}
}
