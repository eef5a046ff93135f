package mint

import (
	"repro/internal/backend"
	"repro/internal/trace"
)

// Analysis surface for the production use cases of §6.3: trace exploration
// over approximate traces (UC 1) and batch trace analysis (UC 2).

// FlameNode is one frame of a trace flame graph.
type FlameNode = backend.FlameNode

// BatchStats aggregates per-service statistics over a batch of traces.
type BatchStats = backend.BatchStats

// ServiceStats summarizes one service's spans within a batch.
type ServiceStats = backend.ServiceStats

// Filter selects traces in FindTraces: predicates over service, operation,
// errors, duration bounds and sampling reason, plus candidate IDs for
// approximate matching.
type Filter = backend.Filter

// FoundTrace is one FindTraces answer.
type FoundTrace = backend.FoundTrace

// Explore queries a trace and renders its execution flame graph — available
// for every trace, sampled or not (UC 1). It returns the query kind, the
// flame roots and a printable rendering; ok is false only on a miss, which
// Mint's no-discard design makes effectively impossible for captured
// traffic.
func (c *Cluster) Explore(traceID string) (kind HitKind, rendered string, ok bool) {
	res := c.Query(traceID)
	if res.Kind == Miss || res.Trace == nil {
		return Miss, "", false
	}
	roots := backend.FlameGraph(res.Trace)
	return res.Kind, backend.RenderFlame(roots), true
}

// FlameGraph builds the flame graph of an already-reconstructed trace.
func FlameGraph(t *Trace) []*FlameNode { return backend.FlameGraph(t) }

// BatchAnalyze aggregates many traces in one pass (UC 2): per-service span
// counts, durations for scatter plots, error counts and the aggregated
// caller→callee topology. Unsampled traces participate through their
// approximate reconstructions, so batch analyses see all requests instead
// of a few thousand sampled spans.
// On a closed cluster it answers empty stats with every trace counted
// missing, and records ErrClosed (see Err).
func (c *Cluster) BatchAnalyze(traceIDs []string) (*BatchStats, int) {
	if err := c.checkOpen(); err != nil {
		return &BatchStats{ByService: map[string]*ServiceStats{}, Edges: map[string]int{}}, len(traceIDs)
	}
	return c.store.BatchQuery(traceIDs)
}

// FindTraces searches the backend for traces matching the filter: sampled
// traces answer exactly from their stored parameters; unsampled traces are
// reachable through Filter.Candidates and answer approximately from
// patterns, pre-screened by a targeted Bloom probe of only the topo
// patterns the filter could match. Results are sorted by trace ID.
// On a closed cluster it answers nil and records ErrClosed (see Err).
func (c *Cluster) FindTraces(f Filter) []FoundTrace {
	if err := c.checkOpen(); err != nil {
		return nil
	}
	return c.store.FindTraces(f)
}

// FindAnalyze runs FindTraces and batch-analyzes the matches in one call:
// the found traces plus their aggregated BatchStats (per-service span and
// error counts, durations, caller→callee topology). Each match is
// reconstructed once, feeding both the answer list and the aggregation.
// On a closed cluster it answers empty and records ErrClosed (see Err).
func (c *Cluster) FindAnalyze(f Filter) (*BatchStats, []FoundTrace) {
	if err := c.checkOpen(); err != nil {
		return &BatchStats{ByService: map[string]*ServiceStats{}, Edges: map[string]int{}}, nil
	}
	return c.store.FindAnalyze(f)
}

// Rebuild triggers the §4.1 reconstruct interface on every agent after a
// system change: live pattern libraries, params buffers and sampler state
// restart, and the span parsers re-warm on the given recent traces. It
// first drains the CaptureAsync queue and uploads each collector's pending
// patterns and Bloom deltas, so every trace captured before Rebuild stays
// queryable. Like Flush, it must not race with captures. On a closed
// cluster it does nothing and records ErrClosed (see Err).
func (c *Cluster) Rebuild(recent []*Trace) {
	if c.checkOpen() != nil {
		return
	}
	byNode := map[string][]*trace.Span{}
	for _, t := range recent {
		for node, spans := range t.ByNode() {
			byNode[node] = append(byNode[node], spans...)
		}
	}
	c.drainIngest()
	for node, col := range c.collectors {
		col.FlushPatterns()
		col.Agent().Rebuild(byNode[node])
	}
}
