package backend

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bloom"
	"repro/internal/parser"
	"repro/internal/topo"
	"repro/internal/wire"
)

// shardReport builds a small workload touching many pattern and trace IDs so
// it spreads across shards.
func shardWorkload(n int) (patterns []*wire.PatternReport, blooms []*wire.BloomReport, params []*wire.ParamsReport) {
	for i := 0; i < n; i++ {
		spanID := fmt.Sprintf("sp-%d", i)
		topoID := fmt.Sprintf("tp-%d", i)
		patterns = append(patterns, &wire.PatternReport{
			Node:         "n1",
			SpanPatterns: []*parser.SpanPattern{{ID: spanID, Service: "svc", Operation: "op"}},
			TopoPatterns: []*topo.Pattern{{ID: topoID, Node: "n1", Entry: spanID}},
		})
		f := bloom.New(256, 0.01)
		f.Add(fmt.Sprintf("trace-%d", i))
		blooms = append(blooms, &wire.BloomReport{Node: "n1", PatternID: topoID, Filter: f})
		params = append(params, &wire.ParamsReport{
			Node: "n1", TraceID: fmt.Sprintf("trace-%d", i),
			Spans: []*parser.ParsedSpan{{PatternID: spanID, TraceID: fmt.Sprintf("trace-%d", i), SpanID: spanID}},
		})
	}
	return
}

func apply(b *Backend, patterns []*wire.PatternReport, blooms []*wire.BloomReport, params []*wire.ParamsReport) {
	for _, r := range patterns {
		b.AcceptPatterns(r)
	}
	for _, r := range blooms {
		b.AcceptBloom(r, false)
	}
	for _, r := range params {
		b.AcceptParams(r)
	}
}

// TestShardParity: every shard count stores the same content, bytes and
// query results as the single-shard (serial-equivalent) backend.
func TestShardParity(t *testing.T) {
	const n = 64
	patterns, blooms, params := shardWorkload(n)

	ref := New(0)
	apply(ref, patterns, blooms, params)
	refTotal, refPat, refBloom, refParams := ref.StorageBytes()

	for _, shards := range []int{2, 4, 7, 16} {
		b := NewSharded(0, shards)
		if b.ShardCount() != shards {
			t.Fatalf("ShardCount = %d, want %d", b.ShardCount(), shards)
		}
		apply(b, patterns, blooms, params)
		total, pat, bl, par := b.StorageBytes()
		if total != refTotal || pat != refPat || bl != refBloom || par != refParams {
			t.Fatalf("shards=%d storage (%d,%d,%d,%d) != serial (%d,%d,%d,%d)",
				shards, total, pat, bl, par, refTotal, refPat, refBloom, refParams)
		}
		if b.SpanPatternCount() != ref.SpanPatternCount() || b.TopoPatternCount() != ref.TopoPatternCount() {
			t.Fatalf("shards=%d pattern counts diverge", shards)
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("trace-%d", i)
			want := ref.Query(id)
			got := b.Query(id)
			if got.Kind != want.Kind {
				t.Fatalf("shards=%d query %s kind = %v, want %v", shards, id, got.Kind, want.Kind)
			}
			if got.Kind != Miss && len(got.Trace.Spans) != len(want.Trace.Spans) {
				t.Fatalf("shards=%d query %s spans = %d, want %d",
					shards, id, len(got.Trace.Spans), len(want.Trace.Spans))
			}
		}
	}
}

// TestShardRoutingIsStable: repeated operations on the same IDs land on the
// same shard (dedup still works across re-reports).
func TestShardRoutingIsStable(t *testing.T) {
	b := NewSharded(0, 8)
	patterns, blooms, params := shardWorkload(16)
	apply(b, patterns, blooms, params)
	_, pat1, bloom1, _ := b.StorageBytes()
	// Re-report everything: duplicates must be dropped (patterns) or land
	// in the segment that already holds their bits (Bloom deltas), never
	// stored twice. Only the merged filter's ID count sees the duplicate,
	// and one more ID does not widen its varint.
	apply(b, patterns, blooms, params)
	_, pat2, bloom2, _ := b.StorageBytes()
	if pat2 != pat1 {
		t.Fatalf("pattern re-report changed storage %d -> %d", pat1, pat2)
	}
	if bloom2 != bloom1 {
		t.Fatalf("bloom delta re-delivery changed storage %d -> %d", bloom1, bloom2)
	}
}

// TestShardedConcurrentWriters hammers all accept paths from many goroutines
// (run with -race).
func TestShardedConcurrentWriters(t *testing.T) {
	b := NewSharded(0, 8)
	patterns, blooms, params := shardWorkload(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(patterns); i += 8 {
				b.AcceptPatterns(patterns[i])
				b.AcceptBloom(blooms[i], false)
				b.AcceptParams(params[i])
				b.MarkSampled(params[i].TraceID, "w")
				_ = b.Query(params[i].TraceID)
			}
		}(g)
	}
	wg.Wait()
	if b.SpanPatternCount() != 128 || b.TopoPatternCount() != 128 {
		t.Fatalf("lost patterns under concurrency: %d/%d", b.SpanPatternCount(), b.TopoPatternCount())
	}
	for i := range params {
		if r := b.Query(params[i].TraceID); r.Kind != ExactHit {
			t.Fatalf("trace %s kind = %v, want exact", params[i].TraceID, r.Kind)
		}
	}
}
