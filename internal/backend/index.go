package backend

import "repro/internal/intern"

// Segment indexing and write epochs for the query engine.
//
// Every pattern shard keeps, next to its flat segment slice, an index keyed
// by (node, patternID): all Bloom segments that ever carried that pair. The
// querier probes per key and stops at the first containing segment, so a
// lookup touches each live (node, pattern) candidate once instead of
// re-probing every historical full segment and deduplicating afterwards —
// the partitioned read-mostly organization McKenney's "Is Parallel
// Programming Hard" prescribes for scan-heavy paths.
//
// Every shard also carries a write epoch: a lock-free counter bumped by any
// mutation that could change a query answer (new pattern, new/replaced Bloom
// segment, new params, new sampled mark). The sum of all shard epochs, the
// write stamp, is a consistency token: a snapshot (for example a cached
// QueryResult) taken at stamp E is still exact iff the current stamp equals
// E. Each epoch only grows and a later read of a shard never sees less than
// an earlier one, so two equal sums mean every shard's epoch is unchanged.

// hit identifies one (node, pattern) pair whose Bloom filter claimed a trace
// ID during a probe. It carries both the resolved strings (for the querier's
// deterministic sort) and the pattern's symbol (for direct store lookups).
type hit struct {
	node      string
	patternID string
	patSym    intern.Sym
}

// addSegment appends a segment to the shard's flat slice and indexes it
// under its packed (node, pattern) key. Caller holds s.mu.
func (s *shard) addSegment(seg bloomSegment) {
	key := intern.Pair(seg.nodeSym, seg.patSym)
	if _, seen := s.segIndex[key]; !seen {
		s.patKeys[seg.patSym] = append(s.patKeys[seg.patSym], key)
	}
	s.segIndex[key] = append(s.segIndex[key], len(s.segments))
	s.segments = append(s.segments, seg)
}

// probeAll checks every indexed (node, pattern) candidate of the shard for
// the trace ID, short-circuiting each candidate at its first containing
// segment. Candidates whose node symbol equals skipSym (the reserved
// self-trace node, for ordinary trace IDs) are not probed at all, so their
// filters cannot contribute false positives. Caller holds s.mu. Results are
// unordered (the querier sorts).
func (s *shard) probeAll(traceID string, hits []hit, skipSym intern.Sym) []hit {
	for _, idxs := range s.segIndex {
		if skipSym != intern.None && s.segments[idxs[0]].nodeSym == skipSym {
			continue
		}
		for _, i := range idxs {
			if s.segments[i].filter.Contains(traceID) {
				seg := s.segments[i]
				hits = append(hits, hit{node: seg.node, patternID: seg.patternID, patSym: seg.patSym})
				break
			}
		}
	}
	return hits
}

// probePatterns reports whether any Bloom segment belonging to one of the
// given topo patterns contains the trace ID — the targeted probe FindTraces
// uses to discard candidates without reconstructing them. Caller holds s.mu.
func (s *shard) probePatterns(traceID string, patterns map[intern.Sym]bool) bool {
	for sym := range patterns {
		for _, key := range s.patKeys[sym] {
			for _, i := range s.segIndex[key] {
				if s.segments[i].filter.Contains(traceID) {
					return true
				}
			}
		}
	}
	return false
}

// writeStamp sums every shard's write epoch without taking locks.
func (b *Backend) writeStamp() uint64 {
	var sum uint64
	for _, s := range b.shards {
		sum += s.epoch.Load()
	}
	return sum
}
