package mint_test

import (
	"testing"

	"repro/internal/sim"
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
