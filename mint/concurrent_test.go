package mint_test

// Parity tests for the concurrent ingestion pipeline: capturing a workload
// from many goroutines (and through the async worker pool) must yield the
// same query results and the same storage/network accounting as the serial
// run. Run with -race to exercise the locking.
//
// The parity runs disable the Symptom/Edge-Case samplers and mark a fixed
// subset of traces sampled explicitly: the samplers' streaming estimators
// (P² quantiles, rarity-at-arrival) are order-dependent by design, so their
// decisions legitimately differ under concurrent interleaving. Everything
// else — pattern stores, Bloom segments, params, byte meters — must match.

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/mint"
)

func parityConfig() mint.Config {
	return mint.Config{DisableSamplers: true}
}

// markEveryTenth marks a deterministic subset sampled, standing in for the
// samplers' decisions.
func markEveryTenth(cluster *mint.Cluster, traces []*mint.Trace) {
	for i, tr := range traces {
		if i%10 == 0 {
			cluster.MarkSampled(tr.TraceID, "parity-test")
		}
	}
}

// serialReference captures the workload one trace at a time on a
// single-shard synchronous cluster — the seed behavior all modes must match.
func serialReference(warm, traces []*mint.Trace) *mint.Cluster {
	sys := sim.OnlineBoutique(42)
	cluster := mint.NewCluster(sys.Nodes, parityConfig())
	cluster.Warmup(warm)
	for _, tr := range traces {
		cluster.Capture(tr)
	}
	markEveryTenth(cluster, traces)
	cluster.Flush()
	return cluster
}

func traceIDs(traces []*mint.Trace) []string {
	ids := make([]string, len(traces))
	for i, tr := range traces {
		ids[i] = tr.TraceID
	}
	return ids
}

func TestConcurrentCaptureMatchesSerial(t *testing.T) {
	sys := sim.OnlineBoutique(42)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 800)
	serial := serialReference(warm, traces)

	// Same workload, many goroutines calling the synchronous Capture on a
	// sharded backend. The stores are content-addressed, so ingestion order
	// must not change them: results match the serial run exactly.
	cfg := parityConfig()
	cfg.Shards = 8
	shardedSys := sim.OnlineBoutique(42)
	sharded := mint.NewCluster(shardedSys.Nodes, cfg)
	sharded.Warmup(warm)
	var wg sync.WaitGroup
	const goroutines = 8
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(traces); i += goroutines {
				sharded.Capture(traces[i])
			}
		}(g)
	}
	wg.Wait()
	markEveryTenth(sharded, traces)
	sharded.Flush()

	if got := sharded.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}
	assertSameAnswers(t, "concurrent", serial, sharded, traceIDs(traces))
	if got, want := sharded.NetworkBytes(), serial.NetworkBytes(); got != want {
		t.Errorf("concurrent network = %d, serial = %d", got, want)
	}
}

func TestCaptureAsyncMatchesSerial(t *testing.T) {
	sys := sim.OnlineBoutique(42)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 800)
	serial := serialReference(warm, traces)
	wantNetwork := serial.NetworkBytes()

	cfg := parityConfig()
	cfg.Shards = 4
	cfg.IngestWorkers = 4
	asyncSys := sim.OnlineBoutique(42)
	async := mint.NewCluster(asyncSys.Nodes, cfg)
	async.Warmup(warm)
	for _, tr := range traces {
		async.CaptureAsync(tr)
	}
	async.Flush() // drain the worker pool so every params block is buffered
	markEveryTenth(async, traces)
	async.Flush() // deliver the marks' params reports before reading back

	// Every report is metered where it is cut, so the worker pool changes
	// neither storage nor the network total.
	assertSameAnswers(t, "async", serial, async, traceIDs(traces))
	gotNetwork := async.NetworkBytes()
	if err := async.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if gotNetwork != wantNetwork {
		t.Errorf("async network = %d, serial = %d", gotNetwork, wantNetwork)
	}
}

// TestInternParitySerialShardedReopened: the backend keys its pattern
// stores by interned uint32 handles, and handle assignment order differs
// between a serial cluster (capture order), a sharded cluster fed from many
// goroutines (racing intern order), and a cluster reopened from disk under
// another shard count (snapshot/WAL replay order). None of that may leak
// into answers: every read path must be byte-identical across all three.
func TestInternParitySerialShardedReopened(t *testing.T) {
	sys := sim.OnlineBoutique(7)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 400)
	ids := traceIDs(traces)

	serial := serialReference(warm, traces)
	defer serial.Close()

	sharded := mint.NewCluster(sys.Nodes, mint.Config{Shards: 8, DisableSamplers: true})
	sharded.Warmup(warm)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(traces); i += 4 {
				sharded.Capture(traces[i])
			}
		}(w)
	}
	wg.Wait()
	markEveryTenth(sharded, traces)
	sharded.Flush()
	defer sharded.Close()
	assertSameAnswers(t, "sharded", serial, sharded, ids)

	// Write with 8 shards, reopen with 3: replay re-interns every pattern in
	// snapshot order into a fresh dictionary.
	dir := t.TempDir()
	persisted, err := mint.Open(sys.Nodes, mint.Config{
		Shards:          8,
		IngestWorkers:   4,
		DisableSamplers: true,
		DataDir:         dir,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	persisted.Warmup(warm)
	for _, tr := range traces {
		persisted.CaptureAsync(tr)
	}
	persisted.Flush()
	markEveryTenth(persisted, traces)
	if err := persisted.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, err := mint.Open(sys.Nodes, mint.Config{Shards: 3, DisableSamplers: true, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	assertSameAnswers(t, "reopened", serial, reopened, ids)
}

// TestAsyncPipelineWithSamplers drives the full pipeline — samplers on,
// worker pool, mid-stream flush — and asserts the
// paradigm invariants that hold under any interleaving: no query misses, no
// deadlocks, Close idempotent and the cluster queryable afterwards.
func TestAsyncPipelineWithSamplers(t *testing.T) {
	sys := sim.OnlineBoutique(7)
	cluster := mint.NewCluster(sys.Nodes, mint.Config{Shards: 4, IngestWorkers: 4})
	cluster.Warmup(sim.GenTraces(sys, 200))
	traces := sim.GenTraces(sys, 400)
	for i, tr := range traces {
		cluster.CaptureAsync(tr)
		if i == len(traces)/2 {
			cluster.Flush() // mid-stream drain must not deadlock or drop
		}
	}
	cluster.Flush()
	for _, tr := range traces {
		if res := cluster.Query(tr.TraceID); res.Kind == mint.Miss {
			t.Fatalf("trace %s missed after mid-stream flush", tr.TraceID)
		}
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close is idempotent: later calls are no-ops returning the same error.
	if err := cluster.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Closed means closed: captures and flushes fail with the sticky
	// ErrClosed instead of panicking on the closed queue or silently
	// ingesting into an unpersisted store (see closed_test.go for the full
	// contract).
	extra := sim.GenTraces(sys, 2)
	if err := cluster.Capture(extra[0]); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("Capture after Close: err = %v, want ErrClosed", err)
	}
	if err := cluster.CaptureAsync(extra[1]); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("CaptureAsync after Close: err = %v, want ErrClosed", err)
	}
	if err := cluster.Flush(); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("Flush after Close: err = %v, want ErrClosed", err)
	}
}
