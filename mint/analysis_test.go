package mint_test

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/mint"
)

func TestExploreUnsampledTrace(t *testing.T) {
	sys, cluster := newOBCluster(t, mint.Defaults())
	cluster.Warmup(sim.GenTraces(sys, 200))
	traces := sim.GenTraces(sys, 300)
	for _, tr := range traces {
		cluster.Capture(tr)
	}
	cluster.Flush()

	kind, rendered, ok := cluster.Explore(traces[50].TraceID)
	if !ok {
		t.Fatal("explore must succeed for captured traffic")
	}
	if kind != mint.PartialHit {
		t.Fatalf("unsampled trace should explore approximately, got %v", kind)
	}
	// UC 1: the flame graph keeps the execution path even though the
	// parameters are masked.
	if !strings.Contains(rendered, "frontend") {
		t.Fatalf("flame graph missing entry service:\n%s", rendered)
	}
	if _, _, ok := cluster.Explore("never-captured"); ok {
		t.Fatal("foreign trace IDs still miss")
	}
}

func TestBatchAnalyzeAllRequests(t *testing.T) {
	sys, cluster := newOBCluster(t, mint.Defaults())
	cluster.Warmup(sim.GenTraces(sys, 200))
	traces := sim.GenTraces(sys, 400)
	ids := make([]string, 0, len(traces))
	for _, tr := range traces {
		cluster.Capture(tr)
		ids = append(ids, tr.TraceID)
	}
	cluster.Flush()

	stats, misses := cluster.BatchAnalyze(ids)
	if misses != 0 {
		t.Fatalf("UC 2 requires zero misses, got %d", misses)
	}
	if stats.Traces != len(ids) {
		t.Fatalf("aggregated %d of %d traces", stats.Traces, len(ids))
	}
	if stats.Spans <= stats.Traces {
		t.Fatal("batch should aggregate span-level data")
	}
	top := stats.TopServices(3)
	if len(top) != 3 || top[0] != "frontend" {
		t.Fatalf("top services = %v (frontend fronts every request)", top)
	}
	if len(stats.Edges) == 0 {
		t.Fatal("aggregated topology missing")
	}
}

// Rebuild keeps every trace captured before it queryable, including those
// whose patterns and Bloom deltas were still pending (captured after the last
// Flush, or still queued by CaptureAsync), and traffic after the rebuild is
// fully queryable too.
func TestRebuildAfterSystemChange(t *testing.T) {
	async := mint.Defaults()
	async.IngestWorkers = 2
	for _, tc := range []struct {
		name string
		cfg  mint.Config
	}{{"capture", mint.Defaults()}, {"capture_async", async}} {
		t.Run(tc.name, func(t *testing.T) {
			sys, cluster := newOBCluster(t, tc.cfg)
			defer cluster.Close()
			cluster.Warmup(sim.GenTraces(sys, 200))
			for _, tr := range sim.GenTraces(sys, 300) {
				cluster.Capture(tr)
			}
			cluster.Flush()

			// Captured after the last Flush: nothing of these is uploaded yet.
			unflushed := sim.GenTraces(sys, 300)
			for _, tr := range unflushed {
				if err := cluster.CaptureAsync(tr); err != nil {
					t.Fatal(err)
				}
			}
			// "System change": rebuild with fresh warmup, then keep capturing.
			cluster.Rebuild(sim.GenTraces(sys, 100))
			post := sim.GenTraces(sys, 200)
			for _, tr := range post {
				cluster.Capture(tr)
			}
			cluster.Flush()
			for name, batch := range map[string][]*mint.Trace{"pre-rebuild": unflushed, "post-rebuild": post} {
				for _, tr := range batch {
					if cluster.Query(tr.TraceID).Kind == mint.Miss {
						t.Fatalf("%s capture %s lost", name, tr.TraceID)
					}
				}
			}
		})
	}
}
