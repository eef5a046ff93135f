package mint

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/bloom"
	"repro/internal/collector"
	"repro/internal/rpc"
)

// store is the backend surface a Cluster works against: the report sink the
// collectors deliver into plus the query and persistence surface the read
// path uses (stats are read through Cluster.backendStats). Two
// implementations exist — the in-process *backend.Backend (Open/NewCluster)
// and the *rpc.Client network transport (Dial) — and the Cluster code is
// identical over both, which is what the parity oracle (oracle_test.go) pins
// down.
type store interface {
	collector.Sink

	// Query answers one trace lookup.
	Query(traceID string) backend.QueryResult
	// QueryMany answers one query per trace ID, positionally.
	QueryMany(traceIDs []string) []backend.QueryResult
	// BatchQuery aggregates many traces, returning stats and miss count.
	BatchQuery(traceIDs []string) (*backend.BatchStats, int)
	// FindTraces runs a predicate search.
	FindTraces(f backend.Filter) []backend.FoundTrace
	// FindAnalyze runs a predicate search plus aggregation in one pass.
	FindAnalyze(f backend.Filter) (*backend.BatchStats, []backend.FoundTrace)

	// FlushPersistence forces captured state durable (a no-op for a
	// memory-only local backend).
	FlushPersistence() error
	// ClosePersistence detaches the durable store; for the network
	// transport it flushes the server durable and closes the connection.
	ClosePersistence() error
}

// Both deployments must keep satisfying the Cluster's store contract.
var (
	_ store = (*backend.Backend)(nil)
	_ store = (*rpc.Client)(nil)
)

// validate rejects configurations that earlier versions clamped or let
// panic deep inside the backend. It is called by Open, NewCluster and Dial
// before any resource is created.
func (c Config) validate() error {
	bad := func(field, why string) error {
		return fmt.Errorf("mint: invalid config: %s %s", field, why)
	}
	if c.Shards < 0 {
		return bad("Shards", fmt.Sprintf("= %d; want >= 0 (0 means the single-shard default)", c.Shards))
	}
	if c.IngestWorkers < 0 {
		return bad("IngestWorkers", fmt.Sprintf("= %d; want >= 0 (0 keeps ingestion synchronous)", c.IngestWorkers))
	}
	if c.Alpha != 0 && !(c.Alpha > 0 && c.Alpha < 1) {
		return bad("Alpha", fmt.Sprintf("= %v; want 0 (the default) or a value in (0, 1)", c.Alpha))
	}
	if !(c.BloomFPP < 1) {
		return bad("BloomFPP", fmt.Sprintf("= %v; want < 1 (0 or less takes the default)", c.BloomFPP))
	}
	if c.BloomBufferBytes > bloom.MaxBufferBytes {
		return bad("BloomBufferBytes", fmt.Sprintf("= %d; want <= %d (0 or less takes the default)", c.BloomBufferBytes, bloom.MaxBufferBytes))
	}
	if c.QueryWorkers < -1 {
		return bad("QueryWorkers", fmt.Sprintf("= %d; want >= -1 (-1 forces serial queries, 0 sizes to GOMAXPROCS)", c.QueryWorkers))
	}
	if c.SnapshotEveryBytes < 0 {
		return bad("SnapshotEveryBytes", fmt.Sprintf("= %d; want >= 0 (0 takes the default threshold)", c.SnapshotEveryBytes))
	}
	if c.RetentionTTL < 0 {
		return bad("RetentionTTL", fmt.Sprintf("= %v; want >= 0 (0 keeps everything forever)", c.RetentionTTL))
	}
	if c.DataDir == "" {
		if c.RetentionTTL != 0 {
			return bad("RetentionTTL", "requires DataDir: retention sweeps run on the durable store")
		}
		if c.SnapshotEveryBytes != 0 {
			return bad("SnapshotEveryBytes", "requires DataDir: compaction rewrites on-disk snapshots")
		}
	}
	return nil
}
