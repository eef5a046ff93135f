package mint_test

// Tests for the indexed parallel query engine at the public-API level:
// cache-enabled clusters answer identically to uncached ones, cached
// results are invalidated by writes (epoch correctness under -race),
// QueryMany is positional, and FindTraces reaches injected faults
// end-to-end.

import (
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/mint"
)

// TestQueryManyMatchesQuery: QueryMany over the worker pool answers each ID
// exactly as serial Query calls do, in position.
func TestQueryManyMatchesQuery(t *testing.T) {
	sys := sim.OnlineBoutique(7)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 400)

	uncached := mint.NewCluster(sys.Nodes, mint.Config{QueryCacheSize: -1, QueryWorkers: -1})
	pooled := mint.NewCluster(sys.Nodes, mint.Config{QueryWorkers: 8, Shards: 4})
	for _, c := range []*mint.Cluster{uncached, pooled} {
		c.Warmup(warm)
		for _, tr := range traces {
			c.Capture(tr)
		}
		c.Flush()
	}

	ids := make([]string, len(traces))
	for i, tr := range traces {
		ids[i] = tr.TraceID
	}
	results := pooled.QueryMany(ids)
	if len(results) != len(ids) {
		t.Fatalf("positional results: got %d want %d", len(results), len(ids))
	}
	// Note: sampler decisions are order-independent here (identical serial
	// captures), so renders must agree except for the sampled sets, which
	// are identical too. Compare kinds and span counts per position.
	for i, res := range results {
		if res.Kind == mint.Miss {
			t.Fatalf("trace %s missed", ids[i])
		}
		serial := uncached.Query(ids[i])
		if res.Kind != serial.Kind || len(res.Trace.Spans) != len(serial.Trace.Spans) {
			t.Fatalf("QueryMany[%d] = %s/%d spans, serial = %s/%d spans",
				i, res.Kind, len(res.Trace.Spans), serial.Kind, len(serial.Trace.Spans))
		}
	}
}

// TestCachedClusterParity: a cluster with the query cache enabled answers
// every read path byte-identically to an uncached cluster fed the same
// captures, cold and warm.
func TestCachedClusterParity(t *testing.T) {
	sys := sim.OnlineBoutique(42)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 500)

	uncached := mint.NewCluster(sys.Nodes, mint.Config{DisableSamplers: true, QueryCacheSize: -1})
	cached := mint.NewCluster(sys.Nodes, mint.Config{DisableSamplers: true, Shards: 4})
	for _, c := range []*mint.Cluster{uncached, cached} {
		c.Warmup(warm)
		for _, tr := range traces {
			c.Capture(tr)
		}
		markEveryTenth(c, traces)
		c.Flush()
	}

	ids := traceIDs(traces)
	for _, pass := range []string{"cold", "warm"} {
		assertSameAnswers(t, pass, uncached, cached, ids)
	}
}

// TestCacheInvalidatedByLateSampling: a cached approximate answer must not
// survive the trace's own sampling mark — the exact overlay (and its
// Reason) must appear on the very next query.
func TestCacheInvalidatedByLateSampling(t *testing.T) {
	sys := sim.OnlineBoutique(11)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 100)

	cluster := mint.NewCluster(sys.Nodes, mint.Config{DisableSamplers: true})
	cluster.Warmup(warm)
	for _, tr := range traces {
		cluster.Capture(tr)
	}
	cluster.Flush()

	id := traces[17].TraceID
	first := cluster.Query(id)
	if first.Kind != mint.PartialHit || first.Reason != "" {
		t.Fatalf("pre-mark query: %s reason=%q", first.Kind, first.Reason)
	}
	_ = cluster.Query(id) // warm the cache entry

	cluster.MarkSampled(id, "late-incident")
	cluster.Flush()

	after := cluster.Query(id)
	if after.Kind != mint.ExactHit {
		t.Fatalf("post-mark query should be exact, got %s (stale cache?)", after.Kind)
	}
	if after.Reason != "late-incident" {
		t.Fatalf("QueryResult.Reason = %q, want late-incident", after.Reason)
	}
}

// TestConcurrentQueryCaptureCached races CaptureAsync ingestion against
// Query/BatchAnalyze on a cache-enabled cluster (for -race), then verifies
// post-quiesce answers against an uncached reference.
func TestConcurrentQueryCaptureCached(t *testing.T) {
	sys := sim.OnlineBoutique(5)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 600)

	cluster := mint.NewCluster(sys.Nodes, mint.Config{
		DisableSamplers: true,
		Shards:          4,
		IngestWorkers:   4,
		QueryWorkers:    4,
	})
	cluster.Warmup(warm)

	ids := make([]string, len(traces))
	for i, tr := range traces {
		ids[i] = tr.TraceID
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tr := range traces {
			cluster.CaptureAsync(tr)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				res := cluster.Query(ids[(i*7+r)%len(ids)])
				if res.Kind == mint.ExactHit && res.Trace == nil {
					t.Error("exact hit without trace")
					return
				}
			}
			cluster.BatchAnalyze(ids[:100])
		}(r)
	}
	wg.Wait()
	// Drain the pipeline, then render before Close: a closed cluster
	// answers nothing (ErrClosed).
	cluster.Flush()
	got := readAnswers(cluster, ids)
	cluster.Close()

	ref := mint.NewCluster(sys.Nodes, mint.Config{DisableSamplers: true, QueryCacheSize: -1})
	ref.Warmup(warm)
	for _, tr := range traces {
		ref.Capture(tr)
	}
	ref.Flush()

	if d := readAnswers(ref, ids).diff(got, ids, true); d != "" {
		t.Fatalf("post-quiesce answers diverged from the uncached reference: %s", d)
	}
}

// TestFindTracesReachesInjectedFaults: end-to-end search — inject a code
// exception at one service, then FindTraces{ErrorsOnly} over the captured
// ID universe must surface every faulted trace and nothing error-free.
func TestFindTracesReachesInjectedFaults(t *testing.T) {
	sys := sim.OnlineBoutique(23)
	warm := sim.GenTraces(sys, 200)
	cluster := mint.NewCluster(sys.Nodes, mint.Defaults())
	cluster.Warmup(warm)

	var ids, faulted []string
	for i := 0; i < 300; i++ {
		opt := sim.GenOptions{}
		if i%20 == 19 {
			opt.Fault = &sim.Fault{Type: sim.FaultException, Service: "checkout", Magnitude: 120}
		}
		tr := sys.GenTrace(sys.PickAPI(), opt)
		ids = append(ids, tr.TraceID)
		if opt.Fault != nil && hasErrorSpan(tr) {
			// The fault only lands when the picked API's call tree touches
			// the target service.
			faulted = append(faulted, tr.TraceID)
		}
		cluster.Capture(tr)
	}
	cluster.Flush()
	if len(faulted) == 0 {
		t.Fatal("workload generated no faulted traces")
	}

	found := cluster.FindTraces(mint.Filter{ErrorsOnly: true, Candidates: ids})
	byID := map[string]mint.FoundTrace{}
	for _, f := range found {
		byID[f.TraceID] = f
	}
	for _, id := range faulted {
		f, ok := byID[id]
		if !ok {
			t.Fatalf("faulted trace %s not found by ErrorsOnly search", id)
		}
		// The symptom sampler fires on error status, so faulted traces
		// should have been sampled and answer exactly, reason included.
		if f.Kind == mint.ExactHit && f.Reason == "" {
			t.Fatalf("exact match %s missing its sampling reason", id)
		}
	}
	// Every match must actually contain an error span.
	for _, f := range found {
		res := cluster.Query(f.TraceID)
		hasErr := false
		for _, s := range res.Trace.Spans {
			if s.Status >= 400 {
				hasErr = true
				break
			}
		}
		if !hasErr {
			t.Fatalf("trace %s matched ErrorsOnly without an error span", f.TraceID)
		}
	}

	// Service search + FindAnalyze: the aggregated stats cover the service.
	stats, sfound := cluster.FindAnalyze(mint.Filter{Service: "checkout", Candidates: ids})
	if len(sfound) == 0 || stats.ByService["checkout"] == nil {
		t.Fatalf("FindAnalyze(checkout): %d matches, stats %v", len(sfound), stats.ByService)
	}
}

func hasErrorSpan(tr *mint.Trace) bool {
	for _, s := range tr.Spans {
		if s.Status >= 400 {
			return true
		}
	}
	return false
}
