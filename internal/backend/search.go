package backend

import (
	"sort"
	"strings"

	"repro/internal/intern"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Trace search (FindTraces): predicate queries over the pattern store.
//
// Lookup-by-trace-ID covers the "I have an incident ID" workflow; search
// covers "which traces touched checkout with an error over 500 ms". The
// engine answers from what the backend already stores, without raw spans:
//
//   - Exact answers come from sampled parameters: every sampled trace is
//     reconstructed (through the query cache when enabled) and tested
//     precisely against the filter.
//   - Approximate answers come from patterns: the filter first selects the
//     span patterns whose service/operation metadata and bucket intervals
//     could satisfy it, then the topo patterns containing them, and only
//     candidate trace IDs claimed by those patterns' Bloom segments are
//     reconstructed and tested. Because Bloom filters cannot enumerate
//     members, approximate search examines caller-supplied candidate IDs
//     (Filter.Candidates) — typically the ID universe of a dashboard's time
//     window.
//
// Durations and statuses of approximate spans are bucket representatives
// (interval midpoints), so range predicates on unsampled traces are
// approximate at bucket precision, exactly like the spans the query itself
// returns.

// Filter selects traces in FindTraces. Zero fields match everything; a
// trace matches when at least one of its spans satisfies every set
// span-level predicate (Service, Operation, ErrorsOnly, duration bounds)
// and the trace satisfies the trace-level predicates (Reason, SampledOnly).
type Filter struct {
	// Service requires a span of this service ("" = any).
	Service string
	// Operation requires a span with this operation ("" = any).
	Operation string
	// ErrorsOnly requires a span with Status >= 400.
	ErrorsOnly bool
	// MinDurationUS / MaxDurationUS bound the matching span's duration in
	// microseconds (0 = unbounded).
	MinDurationUS int64
	MaxDurationUS int64
	// Reason requires the trace to be sampled with this reason ("" = any).
	Reason string
	// SampledOnly restricts the search to exact (sampled) traces.
	SampledOnly bool
	// Candidates are trace IDs to test approximately (unsampled traces are
	// unreachable otherwise: Bloom filters cannot enumerate their members).
	// Sampled IDs among them are deduplicated against the exact results.
	Candidates []string
	// Limit caps the number of returned traces (0 = unlimited). Results are
	// ordered by trace ID, so the cap is deterministic.
	Limit int
}

// empty reports whether the filter has no span-level predicate.
func (f *Filter) emptySpanPredicate() bool {
	return f.Service == "" && f.Operation == "" && !f.ErrorsOnly &&
		f.MinDurationUS == 0 && f.MaxDurationUS == 0
}

// matchSpan tests one reconstructed span against the span-level predicates.
func (f *Filter) matchSpan(s *trace.Span) bool {
	if f.Service != "" && s.Service != f.Service {
		return false
	}
	if f.Operation != "" && s.Operation != f.Operation {
		return false
	}
	if f.ErrorsOnly && s.Status < 400 {
		return false
	}
	if f.MinDurationUS > 0 && s.Duration < f.MinDurationUS {
		return false
	}
	if f.MaxDurationUS > 0 && s.Duration > f.MaxDurationUS {
		return false
	}
	return true
}

// matchTrace reports whether any span satisfies all span-level predicates.
func (f *Filter) matchTrace(t *trace.Trace) bool {
	if t == nil {
		return false
	}
	if f.emptySpanPredicate() {
		return len(t.Spans) > 0
	}
	for _, s := range t.Spans {
		if f.matchSpan(s) {
			return true
		}
	}
	return false
}

// FoundTrace is one search answer.
type FoundTrace struct {
	TraceID string
	// Kind is the underlying query outcome: ExactHit for sampled matches,
	// PartialHit for approximate candidate matches.
	Kind HitKind
	// Reason is the sampling reason for sampled traces.
	Reason string
	// Spans is the matched trace's reconstructed span count.
	Spans int
}

// foundMatch pairs a search answer with the reconstruction it came from, so
// FindAnalyze can aggregate without re-querying.
type foundMatch struct {
	ft FoundTrace
	t  *trace.Trace
}

// FindTraces searches the store for traces satisfying the filter: all
// sampled traces exactly, plus the filter's candidate IDs approximately.
// Results are sorted by trace ID and capped at Filter.Limit.
func (b *Backend) FindTraces(f Filter) []FoundTrace {
	matches := b.findMatches(f)
	out := make([]FoundTrace, len(matches))
	for i, m := range matches {
		out[i] = m.ft
	}
	return out
}

// FindAnalyze runs FindTraces and aggregates the matches' BatchStats in the
// same pass: each match is reconstructed once, feeding both the answer list
// and the aggregation.
func (b *Backend) FindAnalyze(f Filter) (*BatchStats, []FoundTrace) {
	matches := b.findMatches(f)
	stats := &BatchStats{
		ByService: map[string]*ServiceStats{},
		Edges:     map[string]int{},
	}
	out := make([]FoundTrace, len(matches))
	for i, m := range matches {
		out[i] = m.ft
		stats.Traces++
		accumulate(stats, m.t)
	}
	return stats, out
}

func (b *Backend) findMatches(f Filter) []foundMatch {
	spanSet, prefiltered := b.matchingSpanPatterns(&f)
	var topoSet map[intern.Sym]bool
	if prefiltered {
		if len(spanSet) == 0 {
			return nil
		}
		topoSet = b.matchingTopoPatterns(spanSet)
	}

	var out []foundMatch
	seen := map[string]bool{}

	// Exact side: enumerate sampled traces and test their reconstructions.
	out = b.appendExactMatches(out, &f, seen)

	// Approximate side: test candidates, pre-screened by a targeted Bloom
	// probe over the topo patterns the filter could match.
	if !f.SampledOnly && f.Reason == "" {
		out = b.appendCandidateMatches(out, &f, seen, prefiltered, topoSet)
	}

	return sortLimitMatches(out, f.Limit)
}

// foundFrom shapes one query outcome into a search answer.
func foundFrom(id string, res QueryResult) foundMatch {
	return foundMatch{
		ft: FoundTrace{TraceID: id, Kind: res.Kind, Reason: res.Reason, Spans: len(res.Trace.Spans)},
		t:  res.Trace,
	}
}

// appendExactMatches appends every sampled trace satisfying the filter,
// recording each visited ID in seen so the candidate pass skips it.
// Self-trace IDs only surface when the filter explicitly asks for the
// reserved self node's service — otherwise enabling self-tracing would
// change the answers of service-agnostic searches (a duration-only filter,
// say) that happened to match mint's own pipeline spans.
func (b *Backend) appendExactMatches(out []foundMatch, f *Filter, seen map[string]bool) []foundMatch {
	for _, id := range b.sampledTraceIDs(f.Reason) {
		if f.Service != telemetry.SelfNode && strings.HasPrefix(id, telemetry.SelfTracePrefix) {
			continue
		}
		res := b.Query(id)
		if res.Kind == Miss || !f.matchTrace(res.Trace) {
			continue
		}
		seen[id] = true
		out = append(out, foundFrom(id, res))
	}
	return out
}

// appendCandidateMatches appends every unsampled candidate satisfying the
// filter, deduplicating against seen (and within the candidate list itself)
// and pre-screening through the matching patterns' Bloom segments when the
// filter narrowed any. The screen is serial; the survivors are
// reconstructed through QueryMany in bounded chunks, so the query pool is
// the search's one fan-out.
func (b *Backend) appendCandidateMatches(out []foundMatch, f *Filter, seen map[string]bool, prefiltered bool, topoSet map[intern.Sym]bool) []foundMatch {
	var ids []string
	for _, id := range f.Candidates {
		if seen[id] || b.Sampled(id) {
			continue
		}
		seen[id] = true
		if prefiltered && !b.probeCandidate(id, topoSet) {
			continue
		}
		ids = append(ids, id)
	}
	for start := 0; start < len(ids); start += batchQueryChunk {
		chunk := ids[start:min(start+batchQueryChunk, len(ids))]
		for i, res := range b.QueryMany(chunk) {
			if res.Kind == Miss || !f.matchTrace(res.Trace) {
				continue
			}
			out = append(out, foundFrom(chunk[i], res))
		}
	}
	return out
}

// sortLimitMatches orders matches by trace ID and applies the filter cap.
func sortLimitMatches(out []foundMatch, limit int) []foundMatch {
	sort.Slice(out, func(i, j int) bool { return out[i].ft.TraceID < out[j].ft.TraceID })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// matchingSpanPatterns selects the span patterns that could produce a span
// satisfying the filter: exact metadata match on service/operation, and
// could-match bucket checks for status/duration intervals (a pattern whose
// ~status bucket tops out below 400 can never yield an error span; one
// whose ~duration bucket lies outside the requested range can never yield
// a span inside it). prefiltered is false when the filter has no span-level
// predicate, in which case no pattern narrowing applies.
func (b *Backend) matchingSpanPatterns(f *Filter) (map[string]bool, bool) {
	if f.emptySpanPredicate() {
		return nil, false
	}
	set := map[string]bool{}
	for _, s := range b.shards {
		s.mu.Lock()
		for _, p := range s.spanPatterns {
			if p.Service == telemetry.SelfNode && f.Service != telemetry.SelfNode {
				continue // self-trace patterns answer only explicit self searches
			}
			if f.Service != "" && p.Service != f.Service {
				continue
			}
			if f.Operation != "" && p.Operation != f.Operation {
				continue
			}
			if !b.patternCouldMatchRanges(p, f) {
				continue
			}
			set[p.ID] = true
		}
		s.mu.Unlock()
	}
	return set, true
}

// patternCouldMatchRanges applies the bucket-interval could-match checks to
// a span pattern's numeric attributes. Caller may hold a shard lock; only
// the (immutable) mapper is consulted.
func (b *Backend) patternCouldMatchRanges(p *parser.SpanPattern, f *Filter) bool {
	attrBounds := func(key string) (lo, hi float64, ok bool) {
		for _, a := range p.Attrs {
			if a.Key == key && a.IsNum {
				lo, hi = b.mapper.Bounds(a.NumIndex)
				return lo, hi, true
			}
		}
		return 0, 0, false
	}
	if f.ErrorsOnly {
		_, hi, ok := attrBounds("~status")
		if !ok || hi < 400 {
			return false
		}
	}
	if f.MinDurationUS > 0 || f.MaxDurationUS > 0 {
		lo, hi, ok := attrBounds("~duration")
		if !ok {
			return f.MinDurationUS <= 0 // no duration attr reconstructs as 0
		}
		if f.MinDurationUS > 0 && hi < float64(f.MinDurationUS) {
			return false
		}
		if f.MaxDurationUS > 0 && lo > float64(f.MaxDurationUS) {
			return false
		}
	}
	return true
}

// matchingTopoPatterns selects topo patterns that reference any matching
// span pattern in their entry or edges, as a set of interned handles ready
// for the shard probes.
func (b *Backend) matchingTopoPatterns(spanSet map[string]bool) map[intern.Sym]bool {
	set := map[intern.Sym]bool{}
	for _, s := range b.shards {
		s.mu.Lock()
		for id, p := range s.topoPatterns {
			if spanSet[p.Entry] {
				set[id] = true
				continue
			}
			for _, e := range p.Edges {
				if spanSet[e.Parent] {
					set[id] = true
					break
				}
				found := false
				for _, c := range e.Children {
					if spanSet[c] {
						set[id] = true
						found = true
						break
					}
				}
				if found {
					break
				}
			}
		}
		s.mu.Unlock()
	}
	return set
}

// probeCandidate reports whether any Bloom segment of the given topo
// patterns claims the trace ID — the cheap pre-screen that lets search skip
// reconstructing candidates the matching patterns never saw.
func (b *Backend) probeCandidate(traceID string, topoSet map[intern.Sym]bool) bool {
	for _, s := range b.shards {
		s.mu.Lock()
		ok := s.probePatterns(traceID, topoSet)
		s.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// sampledTraceIDs enumerates sampled trace IDs (filtered by reason when
// non-empty), sorted for deterministic search output.
func (b *Backend) sampledTraceIDs(reason string) []string {
	var ids []string
	for _, s := range b.shards {
		s.mu.Lock()
		for id, r := range s.sampled {
			if reason != "" && r != reason {
				continue
			}
			ids = append(ids, id)
		}
		s.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}
