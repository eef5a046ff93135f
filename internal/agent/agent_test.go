package agent

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bloom"
	"repro/internal/trace"
)

var sqlSeq int

func subTrace(traceID string, dur int64, status trace.Status) *trace.SubTrace {
	sqlSeq++
	spans := []*trace.Span{
		{TraceID: traceID, SpanID: traceID + "-r", Service: "svc", Node: "n1",
			Operation: "handle", Kind: trace.KindServer, StartUnix: 1, Duration: dur, Status: status,
			Attributes: map[string]trace.AttrValue{
				"sql.query": trace.Str(fmt.Sprintf("SELECT * FROM t WHERE id=%d", sqlSeq)),
			}},
		{TraceID: traceID, SpanID: traceID + "-c", ParentID: traceID + "-r", Service: "svc", Node: "n1",
			Operation: "call db/query", Kind: trace.KindClient, StartUnix: 2, Duration: dur / 2, Status: trace.StatusOK,
			Attributes: map[string]trace.AttrValue{"peer.service": trace.Str("db")}},
	}
	return &trace.SubTrace{TraceID: traceID, Node: "n1", Spans: spans}
}

func TestIngestBuildsPatternsAndBuffersParams(t *testing.T) {
	a := New("n1", Config{})
	res := a.Ingest(subTrace("t1", 3000, trace.StatusOK))
	if res.TopoPatternID == "" || !res.NewTopo {
		t.Fatalf("first ingest should create a topo pattern: %+v", res)
	}
	if res.RawBytes <= 0 {
		t.Fatal("raw byte accounting missing")
	}
	if a.Buffer().Len() != 1 {
		t.Fatalf("params buffer should hold 1 block, has %d", a.Buffer().Len())
	}
	if a.Parser().Library().Len() == 0 || a.TopoLibrary().Len() == 0 {
		t.Fatal("libraries should be populated")
	}
	if a.Ingested() != 1 {
		t.Fatalf("ingested = %d", a.Ingested())
	}
}

func TestRepeatedShapeSharesTopoPattern(t *testing.T) {
	a := New("n1", Config{})
	first := a.Ingest(subTrace("t1", 3000, trace.StatusOK))
	second := a.Ingest(subTrace("t2", 3100, trace.StatusOK))
	if second.NewTopo {
		t.Fatal("same shape must reuse the topo pattern")
	}
	if first.TopoPatternID != second.TopoPatternID {
		t.Fatal("pattern IDs must match for equal shapes")
	}
}

func TestSymptomSamplingOnError(t *testing.T) {
	a := New("n1", Config{})
	for i := 0; i < 150; i++ {
		a.Ingest(subTrace(fmt.Sprintf("w%d", i), 3000, trace.StatusOK))
	}
	bad := subTrace("bad", 3000, trace.StatusError)
	bad.Spans[0].Attributes["error.msg"] = trace.Str("NullPointerException at line 12")
	res := a.Ingest(bad)
	if len(res.Samples) == 0 {
		t.Fatal("error trace must be sampled")
	}
	if res.Samples[0].TraceID != "bad" {
		t.Fatalf("sample event = %+v", res.Samples[0])
	}
}

func TestTakeParams(t *testing.T) {
	a := New("n1", Config{})
	a.Ingest(subTrace("t1", 3000, trace.StatusOK))
	spans, ok := a.TakeParams("t1")
	if !ok || len(spans) != 2 {
		t.Fatalf("TakeParams = %d spans, %v", len(spans), ok)
	}
	if _, ok := a.TakeParams("t1"); ok {
		t.Fatal("params are gone after take")
	}
}

func TestDrainPatternDeltas(t *testing.T) {
	a := New("n1", Config{})
	a.Ingest(subTrace("t1", 3000, trace.StatusOK))
	sp, tp := a.DrainPatternDeltas()
	if len(sp) == 0 || len(tp) != 1 {
		t.Fatalf("deltas = %d span, %d topo", len(sp), len(tp))
	}
	// Second drain with no new traffic is empty.
	sp, tp = a.DrainPatternDeltas()
	if len(sp) != 0 || len(tp) != 0 {
		t.Fatalf("second drain should be empty: %d, %d", len(sp), len(tp))
	}
	// Known shapes produce no new deltas.
	a.Ingest(subTrace("t2", 3050, trace.StatusOK))
	sp, tp = a.DrainPatternDeltas()
	if len(tp) != 0 {
		t.Fatalf("repeat shape created topo deltas: %d", len(tp))
	}
}

// The Bloom-full callback fires on a new agent and on a rebuilt one, and
// registering it while ingest fires it is race-free on both.
func TestBloomFullCallback(t *testing.T) {
	for _, rebuilt := range []bool{false, true} {
		a := New("n1", Config{BloomBufBytes: 64})
		if rebuilt {
			a.Rebuild(nil)
		}
		var fired atomic.Int32
		cb := func(patternID string, f *bloom.Filter) {
			fired.Add(1)
			if f.Count() == 0 {
				t.Error("full filter should carry entries")
			}
		}
		a.OnBloomFull(cb)
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					a.OnBloomFull(cb)
				}
			}
		}()
		cap := bloom.New(64, bloom.DefaultFPP).Capacity()
		for i := 0; i <= cap+1; i++ {
			a.Ingest(subTrace(fmt.Sprintf("t%d", i), 3000, trace.StatusOK))
		}
		close(stop)
		<-done
		if fired.Load() == 0 {
			t.Fatalf("rebuilt %v: bloom-full callback never fired", rebuilt)
		}
	}
}

func TestHeadSampleRateConfig(t *testing.T) {
	a := New("n1", Config{HeadSampleRate: 1.0, DisableSamplers: true})
	res := a.Ingest(subTrace("t1", 3000, trace.StatusOK))
	if len(res.Samples) != 1 || res.Samples[0].Reason != "head" {
		t.Fatalf("head sampling at rate 1 must mark every trace: %+v", res.Samples)
	}
}

func TestDisableSamplers(t *testing.T) {
	a := New("n1", Config{DisableSamplers: true})
	bad := subTrace("bad", 3000, trace.StatusError)
	bad.Spans[0].Attributes["error.msg"] = trace.Str("exception!")
	if res := a.Ingest(bad); len(res.Samples) != 0 {
		t.Fatalf("samplers disabled but got samples: %+v", res.Samples)
	}
}

func TestReconstructRoundTripViaAgent(t *testing.T) {
	a := New("n1", Config{})
	st := subTrace("t9", 2718, trace.StatusOK)
	orig := st.Spans[0].Clone()
	a.Ingest(st)
	spans, _ := a.TakeParams("t9")
	var rootPS = spans[0]
	if rootPS.SpanID != orig.SpanID {
		rootPS = spans[1]
	}
	pat, ok := a.Parser().Library().Get(rootPS.PatternID)
	if !ok {
		t.Fatal("pattern missing from library")
	}
	got := a.Reconstruct(pat, rootPS)
	if got.Duration != orig.Duration || got.Attributes["sql.query"].Str != orig.Attributes["sql.query"].Str {
		t.Fatalf("reconstruction mismatch: %+v vs %+v", got, orig)
	}
}
