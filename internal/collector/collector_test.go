package collector

import (
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/backend"
	"repro/internal/trace"
	"repro/internal/wire"
)

func newStack(bloomBytes int) (*Collector, *backend.Backend, *wire.Meter) {
	a := agent.New("n1", agent.Config{BloomBufBytes: bloomBytes})
	b := backend.New(0)
	m := wire.NewMeter()
	return New(a, b, m), b, m
}

var seq int

func st(traceID string, dur int64, status trace.Status) *trace.SubTrace {
	seq++
	spans := []*trace.Span{
		{TraceID: traceID, SpanID: fmt.Sprintf("s%d", seq), Service: "svc", Node: "n1",
			Operation: "op", Kind: trace.KindServer, StartUnix: 1, Duration: dur, Status: status,
			Attributes: map[string]trace.AttrValue{
				"url": trace.Str(fmt.Sprintf("/v1/item?id=%d", seq)),
			}},
	}
	return &trace.SubTrace{TraceID: traceID, Node: "n1", Spans: spans}
}

func TestFlushReportsPatternsAndBloom(t *testing.T) {
	c, b, m := newStack(0)
	c.Ingest(st("t1", 1000, trace.StatusOK))
	c.FlushPatterns()
	if b.SpanPatternCount() == 0 || b.TopoPatternCount() == 0 {
		t.Fatal("flush must deliver patterns")
	}
	if m.ByKind("patterns") <= 0 || m.ByKind("bloom") <= 0 {
		t.Fatal("flush must be metered")
	}
	// A second flush with no new data sends nothing.
	before := m.Total()
	c.FlushPatterns()
	if m.Total() != before {
		t.Fatal("idle flush must not send bytes")
	}
}

func TestSampledTraceParamsUploadedOnce(t *testing.T) {
	c, b, m := newStack(0)
	c.Ingest(st("t1", 1000, trace.StatusOK))
	c.FlushPatterns()
	c.ReportSampled("t1")
	if m.ByKind("params") <= 0 {
		t.Fatal("params upload must be metered")
	}
	before := m.Total()
	c.ReportSampled("t1") // duplicate notification
	if m.Total() != before {
		t.Fatal("duplicate sample notification must not re-upload")
	}
	b.MarkSampled("t1", "test")
	if r := b.Query("t1"); r.Kind != backend.ExactHit {
		t.Fatalf("sampled trace should query exact, got %v", r.Kind)
	}
}

func TestReportSampledUnknownTrace(t *testing.T) {
	c, _, m := newStack(0)
	before := m.Total()
	c.ReportSampled("missing")
	if m.Total() != before {
		t.Fatal("unknown trace should not send params")
	}
}

func TestIngestPropagatesSamplesToBackend(t *testing.T) {
	c, b, _ := newStack(0)
	for i := 0; i < 150; i++ {
		c.Ingest(st(fmt.Sprintf("w%d", i), 1000, trace.StatusOK))
	}
	res := c.Ingest(st("bad", 1000, trace.StatusError))
	if len(res.Samples) == 0 {
		t.Fatal("error trace should be sampled")
	}
	if !b.Sampled("bad") {
		t.Fatal("sampling decision must reach the backend")
	}
}

func TestBloomFullImmediateReport(t *testing.T) {
	c, _, m := newStack(64) // tiny filters fill fast
	n := 200
	for i := 0; i < n; i++ {
		c.Ingest(st(fmt.Sprintf("t%d", i), 1000, trace.StatusOK))
	}
	if m.ByKind("bloom") <= 0 {
		t.Fatal("full Bloom filters must be reported immediately, before any flush")
	}
	_ = c.Agent()
}
