package mint_test

// Durable storage engine tests at the public-API level: crash recovery,
// close-is-flush, retention and open errors. A cluster reopened from a
// DataDir must answer every read path byte-identically to the cluster that
// wrote it, whether it was closed cleanly or abandoned after a Flush (the
// simulated crash); the parity oracle's durable row (oracle_test.go) runs
// the same check over seeded histories. Run with -race: captures fan out
// over the ingest worker pool while the WAL appends under shard locks.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/mint"
)

func writeFile(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o644)
}

// captureWorkload writes 500 traces through the async ingest pool of a
// durable 4-shard cluster and flushes the WAL durable.
func captureWorkload(t *testing.T, dir string) (*mint.Cluster, []string) {
	t.Helper()
	sys := sim.OnlineBoutique(21)
	cluster, err := mint.Open(sys.Nodes, mint.Config{
		Shards:        4,
		IngestWorkers: 4,
		DataDir:       dir,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cluster.Warmup(sim.GenTraces(sys, 200))
	traces := sim.GenTraces(sys, 500)
	for _, tr := range traces {
		cluster.CaptureAsync(tr)
	}
	cluster.Flush()
	return cluster, traceIDs(traces)
}

func TestCrashRecoveryParityAfterClose(t *testing.T) {
	dir := t.TempDir()
	live, ids := captureWorkload(t, dir)
	// Read before Close — a closed cluster answers nothing.
	want := readAnswers(live, ids)
	if err := live.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, err := mint.Open(live.Nodes(), mint.Config{Shards: 4, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if d := want.diff(readAnswers(reopened, ids), ids, true); d != "" {
		t.Fatalf("diverged after Close and reopen: %s", d)
	}
}

func TestCrashRecoveryParityAfterFlushOnly(t *testing.T) {
	dir := t.TempDir()
	// The simulated crash: Flush makes the WAL durable, then the cluster is
	// abandoned without Close. Reopen with a different shard count for good
	// measure — the data directory is layout-independent.
	live, ids := captureWorkload(t, dir)
	want := readAnswers(live, ids)
	reopened, err := mint.Open(live.Nodes(), mint.Config{Shards: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if d := want.diff(readAnswers(reopened, ids), ids, true); d != "" {
		t.Fatalf("diverged after crash and resharded reopen: %s", d)
	}
}

// TestCloseFlushesPendingAsyncBatches is the regression test for
// close-is-flush: captures still sitting in the async ingest queue and the
// reporters' batch buffers when Close is called must reach disk, and Close
// must stay idempotent around it.
func TestCloseFlushesPendingAsyncBatches(t *testing.T) {
	dir := t.TempDir()
	sys := sim.OnlineBoutique(9)
	cluster, err := mint.Open(sys.Nodes, mint.Config{Shards: 2, IngestWorkers: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cluster.Warmup(sim.GenTraces(sys, 100))
	traces := sim.GenTraces(sys, 200)
	for _, tr := range traces {
		cluster.CaptureAsync(tr) // no Flush: Close alone must drain and persist
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	reopened, err := mint.Open(sys.Nodes, mint.Config{Shards: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, tr := range traces {
		if res := reopened.Query(tr.TraceID); res.Kind == mint.Miss {
			t.Fatalf("trace %s enqueued before Close was not persisted", tr.TraceID)
		}
	}
	// The persisted state must also be stable across a second close/reopen
	// cycle: close-is-flush leaves nothing behind that a reopen would lose.
	ids := traceIDs(traces)
	want := readAnswers(reopened, ids) // a closed cluster answers nothing
	if err := reopened.Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
	again, err := mint.Open(sys.Nodes, mint.Config{Shards: 4, DataDir: dir})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer again.Close()
	if d := want.diff(readAnswers(again, ids), ids, true); d != "" {
		t.Fatalf("answers changed across the second reopen: %s", d)
	}
}

func TestRetentionTTLDropsOldTraces(t *testing.T) {
	dir := t.TempDir()
	sys := sim.OnlineBoutique(5)
	cluster, err := mint.Open(sys.Nodes, mint.Config{DataDir: dir, RetentionTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cluster.Warmup(sim.GenTraces(sys, 100))
	traces := sim.GenTraces(sys, 50)
	for _, tr := range traces {
		cluster.Capture(tr)
	}
	cluster.Flush()
	if res := cluster.Query(traces[0].TraceID); res.Kind == mint.Miss {
		t.Fatal("trace missed before TTL elapsed")
	}
	time.Sleep(60 * time.Millisecond)
	if n := cluster.Backend().SweepExpired(); n == 0 {
		t.Fatal("sweep after TTL dropped nothing")
	}
	if res := cluster.Query(traces[0].TraceID); res.Kind != mint.Miss {
		t.Fatalf("expired trace still answers %v", res.Kind)
	}
	if cluster.SpanPatternCount() == 0 {
		t.Fatal("retention must keep pattern libraries")
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestOpenSurfacesPersistenceErrors(t *testing.T) {
	// A DataDir that collides with an existing file cannot be created.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "not-a-dir")
	if err := writeFile(blocked, "occupied"); err != nil {
		t.Fatal(err)
	}
	if _, err := mint.Open([]string{"n1"}, mint.Config{DataDir: blocked}); err == nil {
		t.Fatal("Open with an unusable DataDir must fail")
	}
}
