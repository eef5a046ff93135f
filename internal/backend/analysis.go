package backend

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// This file implements the production use cases of §6.3: trace exploration
// over approximate traces (UC 1) and batch trace analysis (UC 2). Both
// operate on whatever the querier returns — exact traces for sampled IDs,
// approximate traces for everything else — so they cover all requests.

// FlameNode is one frame of a trace flame graph.
type FlameNode struct {
	Service   string
	Operation string
	Duration  int64 // µs (bucket representative for approximate traces)
	Status    trace.Status
	Children  []*FlameNode
}

// FlameGraph renders a trace (exact or approximate) into its execution
// flame graph — the Trace Explorer view that remains available for
// unsampled traces (UC 1: "the full trace execution path, flame graph,
// types and approximate content of each operation").
func FlameGraph(t *trace.Trace) []*FlameNode {
	byID := map[string]*trace.Span{}
	for _, s := range t.Spans {
		byID[s.SpanID] = s
	}
	nodes := map[string]*FlameNode{}
	for _, s := range t.Spans {
		nodes[s.SpanID] = &FlameNode{
			Service:   s.Service,
			Operation: s.Operation,
			Duration:  s.Duration,
			Status:    s.Status,
		}
	}
	var roots []*FlameNode
	// Deterministic child order: start time, then span ID.
	spans := make([]*trace.Span, len(t.Spans))
	copy(spans, t.Spans)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartUnix != spans[j].StartUnix {
			return spans[i].StartUnix < spans[j].StartUnix
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	for _, s := range spans {
		n := nodes[s.SpanID]
		if parent, ok := nodes[s.ParentID]; ok && s.ParentID != "" {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// RenderFlame formats a flame graph as an indented text tree.
func RenderFlame(roots []*FlameNode) string {
	var b strings.Builder
	var walk func(n *FlameNode, depth int)
	walk = func(n *FlameNode, depth int) {
		marker := " "
		if n.Status >= 400 {
			marker = "!"
		}
		fmt.Fprintf(&b, "%s%s %s/%s %.1fms\n",
			strings.Repeat("  ", depth), marker, n.Service, n.Operation,
			float64(n.Duration)/1e3)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// BatchStats aggregates a set of traces the way UC 2's batch analysis does:
// per-service span counts and duration statistics, plus the aggregated
// topology (caller→callee edge counts).
type BatchStats struct {
	Traces    int
	Spans     int
	ByService map[string]*ServiceStats
	Edges     map[string]int // "caller->callee" -> count
}

// ServiceStats summarizes one service's spans within a batch.
type ServiceStats struct {
	Spans       int
	Errors      int
	TotalDurUS  int64
	MaxDurUS    int64
	DurationsUS []int64 // scatter-diagram material (per UC 2)
}

// SetQueryWorkers bounds the worker pool QueryMany and BatchQuery fan out
// over. n == 0 (the default) sizes the pool to GOMAXPROCS; n < 0 forces
// serial queries. Configure before serving queries: it is not synchronized
// with concurrent QueryMany calls.
func (b *Backend) SetQueryWorkers(n int) {
	if n < 0 {
		n = 1
	}
	b.queryWorkers = n
}

// queryPoolSize resolves the configured worker bound against the host.
func (b *Backend) queryPoolSize() int {
	if b.queryWorkers > 0 {
		return b.queryWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// QueryMany answers one query per trace ID, fanning out over the bounded
// worker pool (SetQueryWorkers). Results are positional: out[i] answers
// traceIDs[i], identical to len(traceIDs) serial Query calls. Shard locks
// are only held inside individual probes, so workers interleave freely with
// concurrent ingestion.
func (b *Backend) QueryMany(traceIDs []string) []QueryResult {
	out := make([]QueryResult, len(traceIDs))
	workers := b.queryPoolSize()
	if workers > len(traceIDs) {
		workers = len(traceIDs)
	}
	if workers <= 1 {
		for i, id := range traceIDs {
			out[i] = b.Query(id)
		}
		return out
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(traceIDs) {
					return
				}
				out[i] = b.Query(traceIDs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// batchQueryChunk bounds how many reconstructed traces BatchQuery and the
// candidate side of a search hold at once: queries fan out per chunk, the
// caller drains the chunk, and the traces it drops become collectable
// before the next chunk starts.
const batchQueryChunk = 1024

// BatchQuery runs the querier over many trace IDs and aggregates whatever
// comes back. Misses are counted but contribute nothing (with Mint there
// are none; with '1 or 0' baselines this is where batch analysis starves).
//
// The queries fan out over the worker pool in bounded chunks; aggregation
// walks each chunk in input order, so the returned stats are byte-identical
// to a serial run regardless of completion order, with peak memory bounded
// by the chunk size rather than the batch size.
func (b *Backend) BatchQuery(traceIDs []string) (*BatchStats, int) {
	stats := &BatchStats{
		ByService: map[string]*ServiceStats{},
		Edges:     map[string]int{},
	}
	misses := 0
	for start := 0; start < len(traceIDs); start += batchQueryChunk {
		end := start + batchQueryChunk
		if end > len(traceIDs) {
			end = len(traceIDs)
		}
		for _, res := range b.QueryMany(traceIDs[start:end]) {
			if res.Kind == Miss || res.Trace == nil {
				misses++
				continue
			}
			stats.Traces++
			accumulate(stats, res.Trace)
		}
	}
	return stats, misses
}

func accumulate(stats *BatchStats, t *trace.Trace) {
	byID := map[string]*trace.Span{}
	for _, s := range t.Spans {
		byID[s.SpanID] = s
	}
	for _, s := range t.Spans {
		stats.Spans++
		svc, ok := stats.ByService[s.Service]
		if !ok {
			svc = &ServiceStats{}
			stats.ByService[s.Service] = svc
		}
		svc.Spans++
		if s.Status >= 400 {
			svc.Errors++
		}
		svc.TotalDurUS += s.Duration
		if s.Duration > svc.MaxDurUS {
			svc.MaxDurUS = s.Duration
		}
		svc.DurationsUS = append(svc.DurationsUS, s.Duration)
		if s.ParentID != "" {
			if parent, ok := byID[s.ParentID]; ok && parent.Service != s.Service {
				stats.Edges[parent.Service+"->"+s.Service]++
			}
		}
	}
}

// TopServices returns services ordered by span count, for batch summaries.
func (s *BatchStats) TopServices(k int) []string {
	type kv struct {
		svc string
		n   int
	}
	var list []kv
	for svc, st := range s.ByService {
		list = append(list, kv{svc, st.Spans})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].svc < list[j].svc
	})
	if k > len(list) {
		k = len(list)
	}
	out := make([]string, 0, k)
	for _, e := range list[:k] {
		out = append(out, e.svc)
	}
	return out
}
