package mint_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/mint"
)

func newOBCluster(t *testing.T, cfg mint.Config) (*sim.System, *mint.Cluster) {
	t.Helper()
	sys := sim.OnlineBoutique(42)
	cluster := mint.NewCluster(sys.Nodes, cfg)
	return sys, cluster
}

func TestCaptureAndQueryPartialHit(t *testing.T) {
	sys, cluster := newOBCluster(t, mint.Defaults())
	warm := sim.GenTraces(sys, 200)
	cluster.Warmup(warm)

	traces := sim.GenTraces(sys, 500)
	for _, tr := range traces {
		cluster.Capture(tr)
	}
	cluster.Flush()

	misses := 0
	for _, tr := range traces {
		res := cluster.Query(tr.TraceID)
		if res.Kind == mint.Miss {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("Mint must answer every query at least approximately; got %d misses of %d", misses, len(traces))
	}
}

func TestSampledTraceReturnsExactHit(t *testing.T) {
	sys, cluster := newOBCluster(t, mint.Defaults())
	cluster.Warmup(sim.GenTraces(sys, 200))

	normal := sim.GenTraces(sys, 300)
	for _, tr := range normal {
		cluster.Capture(tr)
	}
	// A faulted trace carries an error status, which the Symptom Sampler
	// flags via the abnormal-word list (exception attribute).
	fault := &sim.Fault{Type: sim.FaultException, Service: "payment", Magnitude: 100}
	bad := sys.GenTrace(3, sim.GenOptions{Fault: fault}) // checkout hits payment
	cluster.Capture(bad)
	cluster.Flush()

	res := cluster.Query(bad.TraceID)
	if res.Kind != mint.ExactHit {
		t.Fatalf("symptomatic trace should be an exact hit, got %v", res.Kind)
	}
	if len(res.Trace.Spans) != len(bad.Spans) {
		t.Fatalf("exact reconstruction span count = %d, want %d", len(res.Trace.Spans), len(bad.Spans))
	}
	// Exact reconstruction must preserve the error status and exception.
	foundErr := false
	for _, s := range res.Trace.Spans {
		if s.Status == mint.StatusError {
			foundErr = true
		}
	}
	if !foundErr {
		t.Fatal("reconstructed trace lost the error status")
	}
}

func TestStorageFarBelowRaw(t *testing.T) {
	sys, cluster := newOBCluster(t, mint.Defaults())
	cluster.Warmup(sim.GenTraces(sys, 200))

	traces := sim.GenTraces(sys, 2000)
	raw := int64(0)
	for _, tr := range traces {
		raw += int64(tr.Size())
		cluster.Capture(tr)
	}
	cluster.Flush()

	storage := cluster.StorageBytes()
	if storage >= raw/5 {
		t.Fatalf("Mint storage %d should be well under 20%% of raw %d", storage, raw)
	}
	network := cluster.NetworkBytes()
	if network >= raw/2 {
		t.Fatalf("Mint network %d should be well under 50%% of raw %d", network, raw)
	}
}

func TestPatternCountsConverge(t *testing.T) {
	sys, cluster := newOBCluster(t, mint.Defaults())
	cluster.Warmup(sim.GenTraces(sys, 200))
	for _, tr := range sim.GenTraces(sys, 1000) {
		cluster.Capture(tr)
	}
	cluster.Flush()
	before := cluster.SpanPatternCount()
	for _, tr := range sim.GenTraces(sys, 1000) {
		cluster.Capture(tr)
	}
	cluster.Flush()
	after := cluster.SpanPatternCount()
	if before == 0 {
		t.Fatal("no span patterns extracted")
	}
	if after > before+before/10 {
		t.Fatalf("pattern library did not converge: %d -> %d", before, after)
	}
	if cluster.TopoPatternCount() == 0 {
		t.Fatal("no topo patterns extracted")
	}
}

// TestDeliveredTwiceAnswersAsOnce: a trace delivered twice — an OTLP
// exporter retrying a POST whose response it lost — stores and answers
// what one delivery does, through Capture and through CaptureOTLP.
func TestDeliveredTwiceAnswersAsOnce(t *testing.T) {
	sys := sim.OnlineBoutique(42)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 300)
	cfg := mint.Config{DisableSamplers: true, HeadSampleRate: 0.1}
	deliver := map[string]func(c *mint.Cluster, tr *mint.Trace) error{
		"capture": func(c *mint.Cluster, tr *mint.Trace) error { return c.Capture(tr) },
		"otlp": func(c *mint.Cluster, tr *mint.Trace) error {
			payload, err := mint.EncodeOTLP(tr.Spans)
			if err != nil {
				return err
			}
			return c.CaptureOTLP(tr.Spans[0].Node, payload)
		},
	}
	for name, send := range deliver {
		t.Run(name, func(t *testing.T) {
			run := func(times int) *mint.Cluster {
				c := mint.NewCluster(sim.OnlineBoutique(42).Nodes, cfg)
				c.Warmup(warm)
				for _, tr := range traces {
					for i := 0; i < times; i++ {
						if err := send(c, tr); err != nil {
							t.Fatalf("deliver %s: %v", tr.TraceID, err)
						}
					}
				}
				markEveryTenth(c, traces)
				if err := c.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				return c
			}
			once, twice := run(1), run(2)
			ids := traceIDs(traces)
			if d := readAnswers(once, ids).diff(readAnswers(twice, ids), ids, false); d != "" {
				t.Fatalf("delivered twice: %s", d)
			}
			_, _, wantParams := once.StorageBreakdown()
			if _, _, gotParams := twice.StorageBreakdown(); gotParams != wantParams {
				t.Fatalf("delivered twice stores %d params bytes, once %d", gotParams, wantParams)
			}
		})
	}
}

// reportLog is a collector.Sink tee that records which traces were marked
// sampled and which traces' params were reported.
type reportLog struct {
	collector.Sink
	mu     sync.Mutex
	marked map[string]bool
	params map[string]bool
}

func (l *reportLog) AcceptParams(r *wire.ParamsReport) {
	l.mu.Lock()
	l.params[r.TraceID] = true
	l.mu.Unlock()
	l.Sink.AcceptParams(r)
}

func (l *reportLog) MarkSampled(traceID, reason string) {
	l.mu.Lock()
	l.marked[traceID] = true
	l.mu.Unlock()
	l.Sink.MarkSampled(traceID, reason)
}

// TestCaptureWithSecondTraceID: a Capture whose spans carry a second trace
// ID sends the sampling notice for the trace that sampled, not for the
// Capture's own ID. The faulted trace answers exact with every span, and the
// healthy trace's params ship only if it sampled itself.
func TestCaptureWithSecondTraceID(t *testing.T) {
	var log *reportLog
	restore := mint.SetReportTeeForTest(func(s collector.Sink) collector.Sink {
		log = &reportLog{Sink: s, marked: map[string]bool{}, params: map[string]bool{}}
		return log
	})
	sys, cluster := newOBCluster(t, mint.Defaults())
	restore()
	cluster.Warmup(sim.GenTraces(sys, 200))
	for _, tr := range sim.GenTraces(sys, 300) {
		cluster.Capture(tr)
	}
	healthy := sys.GenTrace(3, sim.GenOptions{})
	fault := &sim.Fault{Type: sim.FaultException, Service: "payment", Magnitude: 100}
	bad := sys.GenTrace(3, sim.GenOptions{Fault: fault})
	mixed := &mint.Trace{TraceID: healthy.TraceID, Spans: append(append([]*mint.Span{}, healthy.Spans...), bad.Spans...)}
	if err := cluster.Capture(mixed); err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if err := cluster.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	res := cluster.Query(bad.TraceID)
	if res.Kind != mint.ExactHit || res.Reason == "" {
		t.Fatalf("faulted trace answered %v (reason %q), want an exact hit with its reason", res.Kind, res.Reason)
	}
	if d := spanIDDiff(res.Trace, bad); d != "" {
		t.Fatalf("faulted trace: %s", d)
	}
	if log.params[healthy.TraceID] && !log.marked[healthy.TraceID] {
		t.Fatal("the healthy trace's params were uploaded, but nothing sampled it")
	}
}

// spanIDDiff says how got's span IDs differ from want's, or returns "".
func spanIDDiff(got, want *mint.Trace) string {
	ids := map[string]bool{}
	for _, sp := range got.Spans {
		ids[sp.SpanID] = true
	}
	missing := 0
	for _, sp := range want.Spans {
		if !ids[sp.SpanID] {
			missing++
		}
	}
	if missing > 0 || len(ids) != len(want.Spans) {
		return fmt.Sprintf("%d span IDs answered, %d captured, %d captured ones missing", len(ids), len(want.Spans), missing)
	}
	return ""
}

// TestPerHostDeliveryAnswersExact: each host's SDK exports its own spans,
// one OTLP request per node (in the trace's node order, reversed, or split
// over two requests per node). A sub-trace that reaches its host after the
// trace's sampling notice still ships its params, so every exact answer
// holds every captured span.
func TestPerHostDeliveryAnswersExact(t *testing.T) {
	for _, shape := range []string{"node_order", "reversed", "split"} {
		t.Run(shape, func(t *testing.T) {
			sys := sim.OnlineBoutique(1)
			c := mint.NewCluster(sys.Nodes, mint.Defaults())
			defer c.Close()
			c.Warmup(sim.GenTraces(sys, 500))
			traces := sim.GenTraces(sys, 4000)
			for _, tr := range traces {
				for _, req := range perHostRequests(tr, shape) {
					payload, err := mint.EncodeOTLP(req)
					if err != nil {
						t.Fatalf("encode: %v", err)
					}
					if err := c.CaptureOTLP(req[0].Node, payload); err != nil {
						t.Fatalf("CaptureOTLP: %v", err)
					}
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			exact, short := 0, 0
			for _, tr := range traces {
				res := c.Query(tr.TraceID)
				if res.Kind != mint.ExactHit {
					continue
				}
				exact++
				if spanIDDiff(res.Trace, tr) != "" {
					short++
				}
			}
			t.Logf("%s: %d exact answers, %d short; network %d B, storage %d B", shape, exact, short, c.NetworkBytes(), c.StorageBytes())
			if exact == 0 || short != 0 {
				t.Fatalf("%d of %d exact answers are short", short, exact)
			}
		})
	}
}

// perHostRequests groups a trace's spans into the requests its hosts'
// exporters send, in the given shape.
func perHostRequests(tr *mint.Trace, shape string) [][]*mint.Span {
	byNode := map[string][]*mint.Span{}
	var order []string
	for _, sp := range tr.Spans {
		if byNode[sp.Node] == nil {
			order = append(order, sp.Node)
		}
		byNode[sp.Node] = append(byNode[sp.Node], sp)
	}
	if shape == "reversed" {
		slices.Reverse(order)
	}
	var reqs [][]*mint.Span
	for _, node := range order {
		spans := byNode[node]
		if half := len(spans) / 2; shape == "split" && half > 0 {
			reqs = append(reqs, spans[:half], spans[half:])
			continue
		}
		reqs = append(reqs, spans)
	}
	return reqs
}

// TestLateSubTraceNoticeWindow holds back one host's request for a sampled
// trace until K other traces were noticed. Each host remembers the last
// collector.NoticeWindow notices: below that the late sub-trace still ships
// its params, and from there on its spans are missing from the exact answer.
func TestLateSubTraceNoticeWindow(t *testing.T) {
	cfg := mint.Defaults()
	cfg.DisableSamplers = true // only MarkSampled notices, so K is exact
	sys := sim.OnlineBoutique(1)
	warm := sim.GenTraces(sys, 200)
	others := sim.GenTraces(sys, collector.NoticeWindow+1)
	x := others[len(others)-1]
	reqs := perHostRequests(x, "node_order")
	if len(reqs) < 2 {
		t.Fatalf("trace %s spans %d hosts, want at least 2", x.TraceID, len(reqs))
	}
	for _, k := range []int{collector.NoticeWindow - 1, collector.NoticeWindow} {
		c := mint.NewCluster(sys.Nodes, cfg)
		c.Warmup(warm)
		deliver := func(spans []*mint.Span) {
			payload, err := mint.EncodeOTLP(spans)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if err := c.CaptureOTLP(spans[0].Node, payload); err != nil {
				t.Fatalf("CaptureOTLP: %v", err)
			}
		}
		for _, req := range reqs[:len(reqs)-1] {
			deliver(req)
		}
		c.MarkSampled(x.TraceID, "test")
		for _, tr := range others[:k] {
			c.Capture(tr)
			c.MarkSampled(tr.TraceID, "test")
		}
		deliver(reqs[len(reqs)-1]) // the held-back host's request
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		res := c.Query(x.TraceID)
		c.Close()
		if res.Kind != mint.ExactHit {
			t.Fatalf("K=%d: trace answered %v, want an exact hit", k, res.Kind)
		}
		d := spanIDDiff(res.Trace, x)
		t.Logf("K=%d notices behind: %q", k, d)
		if (d == "") != (k < collector.NoticeWindow) {
			t.Fatalf("K=%d notices behind: the late host's spans shipped=%v, want %v", k, d == "", k < collector.NoticeWindow)
		}
	}
}
