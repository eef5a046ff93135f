// Package repro is a from-scratch Go reproduction of "Mint: Cost-Efficient
// Tracing with All Requests Collection via Commonality and Variability
// Analysis" (ASPLOS 2025).
//
// The public API lives in the mint subpackage; the substrates (span/trace
// parsing, Bloom filters, samplers, microservice simulators, baseline
// tracing frameworks, RCA methods and the experiment drivers) live under
// internal/. See README.md for the package layout and a quickstart, and
// ARCHITECTURE.md for the end-to-end pipeline walkthrough.
//
// # Scaling the pipeline
//
// The ingest path is a concurrent sharded pipeline (Config.Shards,
// Config.IngestWorkers, Cluster.CaptureAsync/Close) whose collectors apply
// every report where it is cut, so its byte accounting equals the serial
// path's exactly, and the read path is an
// indexed parallel query engine: per-shard Bloom segment indexes, an
// epoch-invalidated query-result cache (Config.QueryCacheSize), batch
// lookups on a bounded worker pool (Config.QueryWorkers,
// Cluster.QueryMany/BatchAnalyze) and predicate trace search
// (Cluster.FindTraces/FindAnalyze).
//
// # Persistence and operations
//
// Setting Config.DataDir attaches a durable storage engine under the
// backend: the store persists to one versioned binary snapshot plus one
// append-only write-ahead log, replayed on mint.Open, so a reopened
// cluster answers Query/FindTraces byte-identically to the one that wrote
// the directory. Cluster.Flush makes everything captured so far
// crash-durable; Cluster.Close drains the pipeline and flushes
// (close-is-flush). Config.RetentionTTL ages out stored trace data
// (patterns are kept — they are the tiny, deduplicated commonality) and
// Config.SnapshotEveryBytes bounds WAL growth via compaction.
// Operational details — on-disk layout, recovery guarantees, retention
// tuning — are in README.md's "Durability & operations" section.
//
// # Networked deployment
//
// cmd/mintd hosts the sharded durable backend behind a length-prefixed
// binary protocol (internal/rpc) plus an OTLP/JSON HTTP ingestion and
// operations surface; mint.Dial returns a remote Cluster whose per-node
// agents run client-side while every report ships over the wire. An
// in-process cluster and a loopback mintd driven by the same workload
// answer Query/BatchAnalyze/FindTraces byte-identically, including after
// the server restarts from its data directory. See README.md's "Running
// mintd" and ARCHITECTURE.md's "Deployment topology".
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation, plus capture-throughput comparisons for the serial
// and concurrent ingest paths and cold/warm/batch query-latency runs:
//
//	go test -bench=. -benchmem
package repro
