package backend

import "sort"

// SegmentDump is one stored Bloom segment the way the external tests of this
// package compare stores: whose it is, whether periodic deltas still merge
// into it, and the filter in its one canonical encoding (bits and ID count).
type SegmentDump struct {
	Node, PatternID string
	Live            bool
	Filter          []byte
}

// DumpSegments returns every stored Bloom segment, sorted by (node, pattern),
// each pair's segments in store order — an order that does not depend on the
// shard count, because a pair lives in one shard.
func (b *Backend) DumpSegments() []SegmentDump {
	var out []SegmentDump
	for _, s := range b.shards {
		s.mu.Lock()
		for _, seg := range s.segments {
			out = append(out, SegmentDump{
				Node: seg.node, PatternID: seg.patternID, Live: seg.live,
				Filter: seg.filter.AppendMarshal(nil),
			})
		}
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].PatternID < out[j].PatternID
	})
	return out
}
