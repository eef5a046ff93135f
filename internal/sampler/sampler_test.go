package sampler

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/parser"
	"repro/internal/topo"
)

func TestP2QuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewP2Quantile(0.95)
	var xs []float64
	for i := 0; i < 20000; i++ {
		x := rng.NormFloat64()*10 + 100
		xs = append(xs, x)
		q.Observe(x)
	}
	sort.Float64s(xs)
	exact := xs[int(0.95*float64(len(xs)))]
	got := q.Quantile()
	if math.Abs(got-exact) > 1.5 {
		t.Fatalf("P95 estimate %f vs exact %f", got, exact)
	}
	if q.Count() != 20000 {
		t.Fatalf("count = %d", q.Count())
	}
}

func TestP2QuantileUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewP2Quantile(0.5)
	for i := 0; i < 10000; i++ {
		q.Observe(rng.Float64())
	}
	if got := q.Quantile(); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("median of uniform = %f, want ≈0.5", got)
	}
}

func TestP2QuantileFewObservations(t *testing.T) {
	q := NewP2Quantile(0.95)
	if q.Quantile() != 0 {
		t.Fatal("empty estimator should return 0")
	}
	q.Observe(5)
	q.Observe(3)
	if q.Quantile() != 5 {
		t.Fatalf("with <5 obs the max is returned, got %f", q.Quantile())
	}
}

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, p := range []float64{0, 1, -1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%f should panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}

func numPattern(id string) *parser.SpanPattern {
	return &parser.SpanPattern{
		ID: id, Service: "svc", Operation: "op",
		Attrs: []parser.AttrPattern{{Key: "~duration", IsNum: true, Pattern: "(27, 81]"}},
	}
}

func numParsed(v float64) *parser.ParsedSpan {
	return &parser.ParsedSpan{
		PatternID:  "p1",
		TraceID:    "t",
		AttrParams: [][]string{{fmt.Sprintf("%g", v)}},
	}
}

func TestSymptomOutlier(t *testing.T) {
	s := NewSymptom(SymptomConfig{MinObservations: 50})
	pat := numPattern("p1")
	for i := 0; i < 200; i++ {
		d := s.Inspect(pat, numParsed(10+float64(i%5)))
		if d.Sampled {
			t.Fatalf("steady values sampled at %d: %v", i, d)
		}
	}
	d := s.Inspect(pat, numParsed(500))
	if !d.Sampled {
		t.Fatal("a 30x outlier must be sampled")
	}
	if d.Reason != "outlier:~duration" {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestSymptomMinObservationsGate(t *testing.T) {
	s := NewSymptom(SymptomConfig{MinObservations: 1000})
	pat := numPattern("p1")
	for i := 0; i < 100; i++ {
		s.Inspect(pat, numParsed(10))
	}
	if d := s.Inspect(pat, numParsed(1e9)); d.Sampled {
		t.Fatal("outliers must be gated until MinObservations")
	}
}

// Abnormal words are caught in the parameters and in the learned template;
// a template's verdict holds for every span of its pattern, not only the
// first one that met the template.
func TestSymptomAbnormalWords(t *testing.T) {
	strPattern := func(tmpl string) *parser.SpanPattern {
		return &parser.SpanPattern{
			ID: "p2", Service: "svc", Operation: "op",
			Attrs: []parser.AttrPattern{{Key: "msg", Pattern: tmpl}},
		}
	}
	inspect := func(t *testing.T, s *Symptom, pat *parser.SpanPattern, param string, want bool) {
		t.Helper()
		span := &parser.ParsedSpan{PatternID: "p2", TraceID: "t", AttrParams: [][]string{{param}}}
		d := s.Inspect(pat, span)
		if d.Sampled != want || (want && d.Reason != "abnormal:msg") {
			t.Fatalf("template %q, param %q: %+v, want sampled %v", pat.Attrs[0].Pattern, param, d, want)
		}
	}

	t.Run("parameter", func(t *testing.T) {
		s := NewSymptom(SymptomConfig{})
		pat := strPattern("status <*>")
		inspect(t, s, pat, "NullPointerException thrown", true)
		inspect(t, s, pat, "all good", false)
	})
	t.Run("abnormal template samples every span", func(t *testing.T) {
		s := NewSymptom(SymptomConfig{})
		pat := strPattern("NullPointerException at line <*>")
		for i := 0; i < 3; i++ {
			inspect(t, s, pat, "42", true)
		}
	})
	t.Run("benign template leaves the parameters to decide", func(t *testing.T) {
		s := NewSymptom(SymptomConfig{})
		pat := strPattern("status <*>")
		inspect(t, s, pat, "ok", false)
		inspect(t, s, pat, "TIMEOUT", true)
		inspect(t, s, pat, "ok", false)
	})
	t.Run("verdict follows the template text", func(t *testing.T) {
		s := NewSymptom(SymptomConfig{})
		pat := strPattern("status <*>")
		inspect(t, s, pat, "ok", false)
		pat.Attrs[0].Pattern = "status failed <*>"
		inspect(t, s, pat, "ok", true)
		pat.Attrs[0].Pattern = "status <*>"
		inspect(t, s, pat, "ok", false)
	})
	t.Run("non-ASCII word in a template", func(t *testing.T) {
		s := NewSymptom(SymptomConfig{AbnormalWords: []string{"ошибка"}})
		pat := strPattern("запрос: ОШИБКА <*>")
		inspect(t, s, pat, "42", true)
		inspect(t, s, pat, "43", true)
		inspect(t, s, strPattern("запрос: успех <*>"), "42", false)
	})
}

func TestSymptomPerPatternQuantiles(t *testing.T) {
	// The same value can be normal for one pattern and an outlier for
	// another: estimators are keyed per (pattern, attribute).
	s := NewSymptom(SymptomConfig{MinObservations: 50})
	fast := numPattern("fast")
	slow := numPattern("slow")
	for i := 0; i < 200; i++ {
		s.Inspect(fast, numParsed(1))
		s.Inspect(slow, numParsed(1000))
	}
	if d := s.Inspect(slow, numParsed(1100)); d.Sampled {
		t.Fatal("1100 is normal for the slow pattern")
	}
	if d := s.Inspect(fast, numParsed(1100)); !d.Sampled {
		t.Fatal("1100 is a huge outlier for the fast pattern")
	}
}

func edgeLib(t *testing.T) (*topo.Library, string, string) {
	t.Helper()
	lib := topo.NewLibrary(512, 0.01)
	common := &topo.Pattern{Node: "n", Entry: "common"}
	var commonID, rareID string
	for i := 0; i < 990; i++ {
		p, _ := lib.Mount(&topo.Pattern{Node: "n", Entry: "common"}, fmt.Sprintf("t%d", i))
		commonID = p.ID
	}
	for i := 0; i < 5; i++ {
		p, _ := lib.Mount(&topo.Pattern{Node: "n", Entry: "rare"}, fmt.Sprintf("r%d", i))
		rareID = p.ID
	}
	_ = common
	return lib, commonID, rareID
}

func TestEdgeCaseSampler(t *testing.T) {
	lib, commonID, rareID := edgeLib(t)
	e := NewEdgeCase(EdgeCaseConfig{}, lib)
	if d := e.Inspect(commonID); d.Sampled {
		t.Fatal("common path must not be sampled")
	}
	if d := e.Inspect(rareID); !d.Sampled || d.Reason != "edge-case" {
		t.Fatalf("rare path must be sampled: %+v", d)
	}
}

func TestEdgeCaseMinTotalGate(t *testing.T) {
	lib := topo.NewLibrary(512, 0.01)
	p, _ := lib.Mount(&topo.Pattern{Node: "n", Entry: "x"}, "t1")
	e := NewEdgeCase(EdgeCaseConfig{MinTotal: 100}, lib)
	if d := e.Inspect(p.ID); d.Sampled {
		t.Fatal("sampler must wait for MinTotal sub-traces")
	}
}

func TestHeadSamplerDeterministicAndRate(t *testing.T) {
	h := NewHead(0.05)
	sampled := 0
	const n = 20000
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("trace-%d", i)
		a := h.Sample(id)
		if a != h.Sample(id) {
			t.Fatal("head sampling must be deterministic per trace ID")
		}
		if a {
			sampled++
		}
	}
	rate := float64(sampled) / n
	if rate < 0.04 || rate > 0.06 {
		t.Fatalf("head rate = %f, want ≈0.05", rate)
	}
	if !NewHead(1).Sample("x") || NewHead(0).Sample("x") {
		t.Fatal("edge rates")
	}
}

func TestTailOnFlag(t *testing.T) {
	tail := NewTailOnFlag("is_abnormal")
	if !tail.Predicate(map[string]string{"is_abnormal": "true"}) {
		t.Fatal("flagged trace must pass")
	}
	if tail.Predicate(map[string]string{"is_abnormal": "false"}) {
		t.Fatal("unflagged trace must not pass")
	}
}

func TestParseFloat(t *testing.T) {
	cases := map[string]float64{
		"0": 0, "42": 42, "-7": -7, "3.5": 3.5, "+2": 2, "10.25": 10.25,
	}
	for in, want := range cases {
		if got := parseFloat(in); got != want {
			t.Errorf("parseFloat(%q) = %g, want %g", in, got, want)
		}
	}
}
