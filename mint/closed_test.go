package mint_test

// The closed-cluster contract: Close is terminal. Every mutation returns
// the sticky ErrClosed, every read answers zero values and records it, and
// Err exposes it — identically for local and remote clusters, because a
// remote cluster's connection is gone after Close and "remains queryable"
// cannot be honored anyway.

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/mint"
)

func TestClosedClusterOperations(t *testing.T) {
	sys := sim.OnlineBoutique(11)
	cluster := mint.NewCluster(sys.Nodes, mint.Config{Shards: 2, IngestWorkers: 2})
	cluster.Warmup(sim.GenTraces(sys, 100))
	traces := sim.GenTraces(sys, 50)
	for _, tr := range traces {
		if err := cluster.CaptureAsync(tr); err != nil {
			t.Fatalf("CaptureAsync before Close: %v", err)
		}
	}
	if err := cluster.Flush(); err != nil {
		t.Fatalf("Flush before Close: %v", err)
	}
	if err := cluster.Err(); err != nil {
		t.Fatalf("Err on a healthy cluster: %v", err)
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Rebuild has no error to return: it records ErrClosed and uploads
	// nothing to the detached store.
	cluster.Rebuild(traces)
	if err := cluster.Err(); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("Err after Rebuild on a closed cluster: %v, want ErrClosed", err)
	}

	// Mutations return ErrClosed and ingest nothing.
	extra := sim.GenTraces(sys, 3)
	if err := cluster.Capture(extra[0]); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("Capture after Close: err = %v, want ErrClosed", err)
	}
	if err := cluster.CaptureAsync(extra[1]); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("CaptureAsync after Close: err = %v, want ErrClosed", err)
	}
	if err := cluster.MarkSampled(extra[2].TraceID, "late"); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("MarkSampled after Close: err = %v, want ErrClosed", err)
	}
	if err := cluster.Flush(); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("Flush after Close: err = %v, want ErrClosed", err)
	}
	payload, err := mint.EncodeOTLP(extra[0].Spans)
	if err != nil {
		t.Fatalf("EncodeOTLP: %v", err)
	}
	if err := cluster.CaptureOTLP(extra[0].Spans[0].Node, payload); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("CaptureOTLP after Close: err = %v, want ErrClosed", err)
	}

	// Reads answer zero values and record the sticky error.
	if res := cluster.Query(traces[0].TraceID); res.Kind != mint.Miss || res.Trace != nil {
		t.Fatalf("Query after Close: %+v", res)
	}
	if res := cluster.QueryMany([]string{traces[0].TraceID}); len(res) != 1 || res[0].Kind != mint.Miss {
		t.Fatalf("QueryMany after Close: %+v", res)
	}
	if stats, miss := cluster.BatchAnalyze([]string{traces[0].TraceID}); stats.Traces != 0 || miss != 1 {
		t.Fatalf("BatchAnalyze after Close: (%+v, %d)", stats, miss)
	}
	if found := cluster.FindTraces(mint.Filter{SampledOnly: true}); found != nil {
		t.Fatalf("FindTraces after Close: %v", found)
	}
	if _, _, ok := cluster.Explore(traces[0].TraceID); ok {
		t.Fatal("Explore after Close should miss")
	}
	if err := cluster.Err(); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("Err after post-Close use: %v, want ErrClosed", err)
	}

	// Close stays idempotent, returning its original (nil) error — not
	// ErrClosed, which marks misuse, not the lifecycle call itself.
	if err := cluster.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestErrNilUntilMisuse(t *testing.T) {
	cluster := mint.NewCluster([]string{"n1"}, mint.Defaults())
	if err := cluster.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A clean Close with no post-Close use is not an error state.
	if err := cluster.Err(); err != nil {
		t.Fatalf("Err after clean Close: %v", err)
	}
	cluster.Query("x")
	if err := cluster.Err(); !errors.Is(err, mint.ErrClosed) {
		t.Fatalf("Err after post-Close Query: %v, want ErrClosed", err)
	}
}
