package main

// Frozen plan. Every section of every workload issues a fixed number of ops
// derived from --seconds and the planning rates below, so count-based
// ratios repeat exactly for a seed, and a run takes about --seconds on the
// reference box (2-core Xeon 2.1 GHz container, go1.24). The rates were
// measured there once, rounded to two significant digits, and are never
// recomputed at run time: a faster program finishes a section sooner, it
// does not get more work. capFactor bounds a section's wall time when the box
// is having a very bad minute; a capped section is flagged.

const (
	defaultSeconds = 16
	capFactor      = 4.0

	// Planning rates (ops/s on the reference box).
	planCaptureSerial = 8000.0  // mint.Capture, in-process, Defaults()
	planQueryCold     = 13000.0 // single-ID Query, uniform over a large store
	planQueryZipf     = 40000.0 // single-ID Query, Zipf(1.1) over 16384 IDs, cache on
	planCaptureRPC    = 6000.0  // mint.Capture through mint.Dial
	planQueryRPC      = 4500.0  // Query through mint.Dial
	planOTLPRequests  = 1100.0  // OTLP/HTTP requests/s (~50 spans each), one connection, closed loop
	planCaptureAsync  = 7000.0  // CaptureAsync, Shards:4 IngestWorkers:2 DataDir, beside a reader

	// Frozen open-loop rates.
	mixedRate = 2000.0 // traces/s, ~40% of what mixed_durable's store sustains beside its reader
	otlpRate  = 400.0  // requests/s, ~35% of what one connection to the OTLP front door carries

	// Flush cadence, in traces. Flush is the paper's periodic (one-minute)
	// pattern and Bloom upload; 20000 traces is one such period at the
	// lowest request rate of the paper's Fig. 11.
	flushSerial = 20000
	flushRPC    = 5000
	flushMixed  = 8000 // four seconds of mixedRate: a Flush stalls one latency window in four, so the median window has none

	preloadReadonly = 16384 // query_readonly's store: 4x the 4096-entry query cache
	preloadLive     = 2000  // traces flushed before a concurrent reader starts
	recentWindow    = 20000 // concurrent readers query the most recent this-many flushed IDs
	zipfS           = 1.1

	otlpConns        = 1 // a second client goroutine beside a two-processor mintd makes four busy threads on a two-processor box
	otlpWarmRequests = 40

	// Searches: findBlocks blocks spread over a query section, each one
	// untimed round and findPerBlock timed ones (two reason-scoped
	// FindTraces calls a round, see reader.findBlock).
	findBlocks   = 20
	findPerBlock = 24 // the first few of a block run on cold processor caches; they must stay a small share

	// Compaction rewrites a shard's snapshot under its lock once the shard's
	// WAL passes Config.SnapshotEveryBytes (4 MiB by default): a stall of
	// 0.1-0.2 s that lands two to four times in a timed section and then
	// decides its p99. The durable workloads raise the threshold so that no
	// compaction falls inside a run; the lab times one on its own
	// (backend.wal.compact_ms).
	snapshotEveryBytes = 1 << 30

	setupReps = 5 // set-ups per run; setup_s is their median

	// Generator validity (choosing-metrics guide §5): a run is flagged
	// invalid when the generator's own lateness or bookkeeping, not the
	// program, shaped the numbers.
	maxLagShare      = 0.05 // median generator lag / open-loop period
	maxOverheadShare = 0.05 // closed-loop generator time / wall time
)

// smokeScale shrinks every count for --smoke: a harness check, not a
// measurement.
const smokeScale = 1.0 / 50

// roundTo rounds n down to a positive multiple of m.
func roundTo(n, m int) int {
	if n < m {
		return m
	}
	return n / m * m
}
