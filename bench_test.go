package repro

// One benchmark per table and figure of the paper's evaluation. Each runs
// the corresponding experiment driver once per iteration and reports the
// rendered artifact through -v output on the first iteration:
//
//	go test -bench=BenchmarkTable4 -benchmem
//	go test -bench=. -benchmem           # everything (several minutes)
//
// Absolute numbers reflect the simulated substrate (see EXPERIMENTS.md);
// the comparisons' shape — who wins and by roughly what factor — is the
// reproduction target.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/mint"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res := e.Run()
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		if i == 0 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkFig01DailyVolume regenerates Fig. 1 (daily trace volume).
func BenchmarkFig01DailyVolume(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig02ServiceOverhead regenerates Fig. 2 (per-service storage and
// bandwidth overhead of tracing).
func BenchmarkFig02ServiceOverhead(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig03MissRate regenerates Fig. 3 (query miss rate under head+tail
// sampling over 30 days, two regions).
func BenchmarkFig03MissRate(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkTable1Commonality regenerates Table 1 (occurrence/proportion of
// inter-trace and inter-span commonality).
func BenchmarkTable1Commonality(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkFig11OverheadSweep regenerates Fig. 11 (network and storage
// overhead vs request throughput, six frameworks, two benchmarks).
func BenchmarkFig11OverheadSweep(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12QueryHits regenerates Fig. 12 (query hit numbers over 14
// days; Mint-Partial answers every query).
func BenchmarkFig12QueryHits(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkTable3RCA regenerates Table 3 (RCA top-1 accuracy per framework,
// 56 injected faults of the Table 2 classes).
func BenchmarkTable3RCA(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkFig13Datasets regenerates Fig. 13 (dataset descriptions).
func BenchmarkFig13Datasets(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkTable4Compression regenerates Table 4 (compression ratios:
// LogZip/LogReducer/CLP baselines, Mint and its two ablations, datasets A–F).
func BenchmarkTable4Compression(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkFig14LoadTests regenerates Fig. 14 (tracing overhead during the
// 14 load tests T1–T14).
func BenchmarkFig14LoadTests(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15Latency regenerates Fig. 15 (request-path overhead and
// query latency).
func BenchmarkFig15Latency(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkTable5PatternCounts regenerates Table 5 (span/trace pattern
// extraction counts on five sub-services).
func BenchmarkTable5PatternCounts(b *testing.B) { runExperiment(b, "tab5") }

// BenchmarkFig16Sensitivity regenerates Fig. 16 (similarity-threshold
// sensitivity of pattern+parameter storage).
func BenchmarkFig16Sensitivity(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkAblationBloomBuffer sweeps the Bloom buffer size design knob.
func BenchmarkAblationBloomBuffer(b *testing.B) { runExperiment(b, "abl-bloom") }

// BenchmarkAblationParamsBuffer sweeps the Params Buffer capacity and the
// eviction-induced exact→partial degradation.
func BenchmarkAblationParamsBuffer(b *testing.B) { runExperiment(b, "abl-params") }

// BenchmarkAblationParallelHAP verifies parallel HAP parity.
func BenchmarkAblationParallelHAP(b *testing.B) { runExperiment(b, "abl-hap") }

// benchCapture measures end-to-end capture throughput over the Online
// Boutique workload. workers == 0 is the serial baseline (synchronous
// Capture, single-shard backend); workers > 0 drives the concurrent
// pipeline (CaptureAsync onto the worker pool, sharded backend, batched
// async reporting) and includes the final drain in the timed region.
func benchCapture(b *testing.B, shards, workers int) {
	b.Helper()
	sys := sim.OnlineBoutique(1)
	cluster := mint.NewCluster(sys.Nodes, mint.Config{Shards: shards, IngestWorkers: workers})
	cluster.Warmup(sim.GenTraces(sys, 300))
	traces := sim.GenTraces(sys, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.CaptureAsync(traces[i%len(traces)])
	}
	cluster.Flush()
	b.StopTimer()
	cluster.Close()
}

// benchQueryCluster captures a fixed workload and returns the cluster plus
// the captured trace IDs, for the query-path benchmarks.
func benchQueryCluster(b *testing.B, cfg mint.Config) (*mint.Cluster, []string) {
	b.Helper()
	sys := sim.OnlineBoutique(1)
	cluster := mint.NewCluster(sys.Nodes, cfg)
	cluster.Warmup(sim.GenTraces(sys, 300))
	traces := sim.GenTraces(sys, 2048)
	ids := make([]string, len(traces))
	for i, t := range traces {
		ids[i] = t.TraceID
		cluster.Capture(t)
	}
	cluster.Flush()
	return cluster, ids
}

// BenchmarkQueryCold measures uncached single-ID lookups: every query runs
// the full engine — segment-index Bloom probe, stitching, reconstruction.
func BenchmarkQueryCold(b *testing.B) {
	cluster, ids := benchQueryCluster(b, mint.Config{QueryCacheSize: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.Query(ids[i%len(ids)])
	}
}

// BenchmarkQueryWarm measures repeated lookups of unchanged traces with the
// epoch-validated result cache: reconstruction is skipped entirely. Compare
// against BenchmarkQueryCold:
//
//	go test -bench='BenchmarkQuery(Cold|Warm)$' -benchtime=2s
func BenchmarkQueryWarm(b *testing.B) {
	cluster, ids := benchQueryCluster(b, mint.Config{})
	for _, id := range ids {
		_ = cluster.Query(id) // populate the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.Query(ids[i%len(ids)])
	}
}

// BenchmarkQueryBatch measures BatchAnalyze over 1024-ID batches fanned out
// on the query worker pool (one worker per core).
func BenchmarkQueryBatch(b *testing.B) {
	cluster, ids := benchQueryCluster(b, mint.Config{QueryWorkers: runtime.GOMAXPROCS(0)})
	batch := ids[:1024]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = cluster.BatchAnalyze(batch)
	}
}

// BenchmarkClusterCaptureSerial is the serial ingestion baseline.
func BenchmarkClusterCaptureSerial(b *testing.B) { benchCapture(b, 0, 0) }

// BenchmarkClusterCaptureParallel runs the concurrent sharded pipeline with
// one ingest worker per core. Compare against BenchmarkClusterCaptureSerial:
//
//	go test -bench='BenchmarkClusterCapture(Serial|Parallel)$' -benchtime=2s
func BenchmarkClusterCaptureParallel(b *testing.B) {
	w := runtime.GOMAXPROCS(0)
	benchCapture(b, 2*w, w)
}

// BenchmarkRemoteCaptureSerial is the networked-deployment capture baseline:
// the same serial capture as BenchmarkClusterCaptureSerial, but the cluster
// is dialed into a mintd-shaped loopback server, so every sampling mark and
// params report rides the RPC transport (encode, frame, syscall, ack) while
// parsing stays client-side. The delta against the in-process number is the
// cost of the wire; its allocs/op is budget-gated in CI
// (tools/benchbudget).
func BenchmarkRemoteCaptureSerial(b *testing.B) {
	sys := sim.OnlineBoutique(1)
	server := mint.NewCluster(nil, mint.Config{Shards: 4})
	srv := rpc.NewServer(server.Backend())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	cluster, err := mint.Dial(addr.String(), sys.Nodes, mint.Defaults())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer cluster.Close()
	cluster.Warmup(sim.GenTraces(sys, 300))
	traces := sim.GenTraces(sys, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.Capture(traces[i%len(traces)])
	}
	_ = cluster.Flush()
	b.StopTimer()
	if err := cluster.Err(); err != nil {
		b.Fatalf("transport error: %v", err)
	}
}

// benchRemoteQueryCluster captures a fixed workload through a dialed cluster
// against a mintd-shaped loopback server and returns the remote handle plus
// the captured trace IDs, for the remote query benchmarks.
func benchRemoteQueryCluster(b *testing.B) (*mint.Cluster, []string) {
	b.Helper()
	sys := sim.OnlineBoutique(1)
	server := mint.NewCluster(nil, mint.Config{Shards: 4})
	srv := rpc.NewServer(server.Backend())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	b.Cleanup(func() { srv.Close() })
	cluster, err := mint.Dial(addr.String(), sys.Nodes, mint.Defaults())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	b.Cleanup(func() {
		if err := cluster.Err(); err != nil {
			b.Fatalf("transport error: %v", err)
		}
		cluster.Close()
	})
	cluster.Warmup(sim.GenTraces(sys, 300))
	traces := sim.GenTraces(sys, 2048)
	ids := make([]string, len(traces))
	for i, t := range traces {
		ids[i] = t.TraceID
		_ = cluster.Capture(t)
	}
	_ = cluster.Flush()
	return cluster, ids
}

// BenchmarkRemoteQueryMany measures a 64-ID positional batch lookup over the
// multiplexed transport: the batch is one request frame, fanned out over
// the server's query worker pool. Its allocs/op is budget-gated in CI
// (tools/benchbudget).
func BenchmarkRemoteQueryMany(b *testing.B) {
	cluster, ids := benchRemoteQueryCluster(b)
	batch := ids[:64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.QueryMany(batch)
	}
}

// BenchmarkRemoteMark measures the fire-and-forget sampling-mark path over
// the transport: marks coalesce into shared envelope frames instead of
// paying one synchronous round trip each, so steady-state cost is an
// append under a lock. Its allocs/op is budget-gated in CI
// (tools/benchbudget).
func BenchmarkRemoteMark(b *testing.B) {
	cluster, ids := benchRemoteQueryCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.MarkSampled(ids[i%len(ids)], "bench")
	}
	// The final flush stays in the timed region so the server-side envelope
	// application is always counted, whichever side of a timer flush the
	// last iteration lands on — keeps allocs/op stable for the CI budget.
	_ = cluster.Flush()
	b.StopTimer()
}

// BenchmarkTelemetryObserve is the self-observability hot-path guard: one
// latency-histogram observation plus the slow-op ledger gate — exactly the
// overhead every instrumented pipeline stage pays per operation. Budget-
// gated at 0 allocs/op in CI: the instrumentation must never allocate on
// the fast path (slow-path detail strings are built only past the gate).
func BenchmarkTelemetryObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("bench_observe_seconds", "", "benchmark scratch family")
	ledger := telemetry.NewLedger(0, 250*time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := time.Duration(i%1000) * time.Microsecond
		h.Observe(d)
		if ledger.Exceeds(d) {
			ledger.Record("bench", "", d, 0, -1)
		}
	}
}
