package collector

import (
	"fmt"
	"sync"
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

func TestLateSubTraceShipsParamsAtOnce(t *testing.T) {
	c, b, m := newStack(0)
	for i := 0; i < 150; i++ {
		c.Ingest(st(fmt.Sprintf("w%d", i), 1000, trace.StatusOK))
	}
	for _, tc := range []struct {
		id     string
		status trace.Status
	}{{"late", trace.StatusOK}, {"late-bad", trace.StatusError}} {
		c.Ingest(st(tc.id, 1000, tc.status))
		c.ReportSampled(tc.id)
		before := m.ByKind("params")
		// A sub-trace of the noticed trace arrives after the notice.
		res := c.Ingest(st(tc.id, 1000, tc.status))
		if !res.Noticed {
			t.Fatalf("%s: a sub-trace after the notice must report Noticed", tc.id)
		}
		if tc.status == trace.StatusError && len(res.Samples) == 0 {
			t.Fatalf("%s: the late sub-trace should sample itself", tc.id)
		}
		if m.ByKind("params") <= before {
			t.Fatalf("%s: the late sub-trace's params were not sent", tc.id)
		}
		if _, ok := c.Agent().Buffer().Peek(tc.id); ok {
			t.Fatalf("%s: the late sub-trace's params stayed buffered", tc.id)
		}
	}
	c.FlushPatterns()
	b.MarkSampled("late", "test")
	if r := b.Query("late"); r.Kind != backend.ExactHit || len(r.Trace.Spans) != 2 {
		t.Fatalf("late: want an exact hit with both sub-traces' spans, got %v", r.Kind)
	}
}

// TestLateSubTraceBehindOtherNotices: a host that buffers nothing still
// receives every notice. A trace's late sub-trace ships while fewer than
// NoticeWindow other traces were noticed after it, and stays buffered after
// NoticeWindow of them.
func TestLateSubTraceBehindOtherNotices(t *testing.T) {
	for _, k := range []int{100, NoticeWindow - 1, NoticeWindow} {
		c, _, m := newStack(0)
		c.ReportSampled("t")
		for i := 0; i < k; i++ {
			c.ReportSampled(fmt.Sprintf("other%d", i))
		}
		res := c.Ingest(st("t", 1000, trace.StatusOK))
		if shipped := m.ByKind("params") > 0; res.Noticed != shipped || shipped != (k < NoticeWindow) {
			t.Fatalf("%d notices behind: Noticed=%v, params shipped=%v", k, res.Noticed, shipped)
		}
	}
}

// TestLateSubTracesConcurrent: hosts notice and ingest from many
// goroutines at once; every sub-trace ingested after its trace's notice
// leaves nothing buffered.
func TestLateSubTracesConcurrent(t *testing.T) {
	c, _, _ := newStack(0)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				c.Ingest(fixedST(id))
				c.ReportSampled(id)
				res := c.Ingest(fixedST(id))
				if _, buffered := c.Agent().Buffer().Peek(id); !res.Noticed || buffered {
					errs <- fmt.Sprintf("%s: Noticed=%v, still buffered=%v", id, res.Noticed, buffered)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestNoticeWindowStaysBounded: the notice window holds the last
// NoticeWindow noticed IDs in a fixed ring, however many notices a host
// receives and however much it buffers.
func TestNoticeWindowStaysBounded(t *testing.T) {
	for _, busy := range []bool{false, true} {
		a := agent.New("n1", agent.Config{ParamsBufBytes: 64 << 10, DisableSamplers: true})
		c := New(a, backend.New(0), wire.NewMeter())
		sent := 0
		for _, phase := range []int{20_000, 80_000} {
			for ; sent < phase; sent++ {
				if busy {
					c.Ingest(fixedST(fmt.Sprintf("b%07d", sent)))
				}
				c.ReportSampled(fmt.Sprintf("n%07d", sent))
			}
			if len(c.noticed) != NoticeWindow || len(c.ring) != NoticeWindow {
				t.Fatalf("busy=%v after %d notices: window %d IDs in %d slots", busy, sent, len(c.noticed), len(c.ring))
			}
			if c.noticed[fmt.Sprintf("n%07d", sent-NoticeWindow-1)] || !c.noticed[fmt.Sprintf("n%07d", sent-NoticeWindow)] {
				t.Fatalf("busy=%v after %d notices: the window is not the last %d IDs", busy, sent, NoticeWindow)
			}
		}
	}
}

// fixedST is a one-span sub-trace whose params have the same size for every
// traceID of one length, so a full buffer holds a steady block count.
func fixedST(traceID string) *trace.SubTrace {
	return &trace.SubTrace{TraceID: traceID, Node: "n1", Spans: []*trace.Span{{
		TraceID: traceID, SpanID: "s" + traceID, Service: "svc", Node: "n1",
		Operation: "op", Kind: trace.KindServer, StartUnix: 1, Duration: 1000,
		Attributes: map[string]trace.AttrValue{"url": trace.Str("/v1/item?id=" + traceID)},
	}}}
}
