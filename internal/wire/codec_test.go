package wire

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bloom"
	"repro/internal/parser"
	"repro/internal/topo"
	"repro/internal/trace"
)

func TestSpanPatternCodecRoundTrip(t *testing.T) {
	p := &parser.SpanPattern{
		ID:        "aa11-bb22",
		Service:   "checkout",
		Operation: "HTTP POST /charge",
		Kind:      trace.KindServer,
		Attrs: []parser.AttrPattern{
			{Key: "db.statement", Pattern: "select * from <*>"},
			{Key: "~duration", IsNum: true, Pattern: "(27, 81]", NumIndex: -3},
		},
	}
	p.SetID(p.ID) // derived route hash is rebuilt on decode
	got, err := UnmarshalSpanPattern(MarshalSpanPattern(p))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", p, got)
	}
}

func TestSpanPatternCodecEmpty(t *testing.T) {
	p := &parser.SpanPattern{}
	p.SetID("")
	got, err := UnmarshalSpanPattern(MarshalSpanPattern(p))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestTopoPatternCodecRoundTrip(t *testing.T) {
	p := &topo.Pattern{
		ID:    "topo-1",
		Node:  "node-2",
		Entry: "pat-entry",
		Edges: []topo.Edge{
			{Parent: "pat-entry", Children: []string{"pat-a", "pat-b"}},
			{Parent: "pat-a", Children: []string{"pat-c"}},
		},
		Exits: []string{"pat-c"},
	}
	p.SetID(p.ID) // derived route hash is rebuilt on decode
	got, err := UnmarshalTopoPattern(MarshalTopoPattern(p))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", p, got)
	}
}

func TestPatternReportCodecRoundTrip(t *testing.T) {
	sp := &parser.SpanPattern{
		Service:   "cart",
		Operation: "HTTP GET /cart",
		Kind:      trace.KindServer,
		Attrs: []parser.AttrPattern{
			{Key: "user.id", Pattern: "<*>"},
			{Key: "~duration", IsNum: true, Pattern: "(4, 9]", NumIndex: 2},
		},
	}
	sp.SetID("span-pat-1")
	tp := &topo.Pattern{
		Node:  "node-1",
		Entry: "span-pat-1",
		Edges: []topo.Edge{{Parent: "span-pat-1", Children: []string{"span-pat-2"}}},
		Exits: []string{"span-pat-2"},
	}
	tp.SetID("topo-pat-1")
	in := &PatternReport{Node: "node-1", SpanPatterns: []*parser.SpanPattern{sp}, TopoPatterns: []*topo.Pattern{tp}}
	got, err := UnmarshalPatternReport(MarshalPatternReport(in))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, got)
	}
}

func TestBloomReportCodecRoundTrip(t *testing.T) {
	f := bloom.New(256, 0.01)
	f.Add("trace-1")
	f.Add("trace-2")
	r := &BloomReport{Node: "node-1", PatternID: "pat-9", Filter: f, Full: true}
	got, err := UnmarshalBloomReport(MarshalBloomReport(r))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Node != r.Node || got.PatternID != r.PatternID || got.Full != r.Full {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for _, id := range []string{"trace-1", "trace-2"} {
		if !got.Filter.Contains(id) {
			t.Fatalf("decoded filter lost %s", id)
		}
	}
	if got.Filter.Count() != f.Count() {
		t.Fatalf("count mismatch: %d != %d", got.Filter.Count(), f.Count())
	}
}

func TestParamsReportCodecRoundTrip(t *testing.T) {
	r := &ParamsReport{
		Node:    "node-3",
		TraceID: "tr-42",
		Spans: []*parser.ParsedSpan{
			{
				PatternID:  "pat-1",
				TraceID:    "tr-42",
				SpanID:     "s1",
				ParentID:   "",
				StartUnix:  1234567,
				AttrParams: [][]string{{"37"}, {"cart", "1138"}, nil},
				RawSize:    412,
			},
			{
				PatternID: "pat-2",
				TraceID:   "tr-42",
				SpanID:    "s2",
				ParentID:  "s1",
				StartUnix: -9,
				RawSize:   0,
			},
		},
	}
	got, err := UnmarshalParamsReport(MarshalParamsReport(r))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Node != r.Node || got.TraceID != r.TraceID || len(got.Spans) != len(r.Spans) {
		t.Fatalf("envelope mismatch: %+v", got)
	}
	for i, want := range r.Spans {
		g := got.Spans[i]
		if g.PatternID != want.PatternID || g.TraceID != want.TraceID ||
			g.SpanID != want.SpanID || g.ParentID != want.ParentID ||
			g.StartUnix != want.StartUnix || g.RawSize != want.RawSize {
			t.Fatalf("span %d mismatch:\n  in  %+v\n  out %+v", i, want, g)
		}
		if len(g.AttrParams) != len(want.AttrParams) {
			t.Fatalf("span %d attr params count: %d != %d", i, len(g.AttrParams), len(want.AttrParams))
		}
		for j := range want.AttrParams {
			if len(want.AttrParams[j]) == 0 && len(g.AttrParams[j]) == 0 {
				continue // nil vs empty slice are the same on the wire
			}
			if !reflect.DeepEqual(want.AttrParams[j], g.AttrParams[j]) {
				t.Fatalf("span %d attr %d mismatch: %v != %v", i, j, g.AttrParams[j], want.AttrParams[j])
			}
		}
	}
}

func TestCodecRejectsCorruptPayloads(t *testing.T) {
	p := &parser.SpanPattern{ID: "id", Service: "svc", Operation: "op",
		Attrs: []parser.AttrPattern{{Key: "k", Pattern: "v"}}}
	good := MarshalSpanPattern(p)

	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-2],
		"trailing":  append(append([]byte{}, good...), 0xff),
	}
	for name, payload := range cases {
		if _, err := UnmarshalSpanPattern(payload); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: want ErrCodec, got %v", name, err)
		}
	}

	if _, err := UnmarshalParamsReport([]byte{0x01}); !errors.Is(err, ErrCodec) {
		t.Errorf("params: want ErrCodec, got %v", err)
	}
	if _, err := UnmarshalTopoPattern([]byte{0x05, 'a'}); !errors.Is(err, ErrCodec) {
		t.Errorf("topo: want ErrCodec, got %v", err)
	}
	if _, err := UnmarshalBloomReport([]byte{0x00, 0x00, 0x01, 0x03, 1, 2, 3}); !errors.Is(err, ErrCodec) {
		t.Errorf("bloom: want ErrCodec, got %v", err)
	}
}
