package backend

import (
	"fmt"
	"testing"
)

// BenchmarkWALMark measures the write-ahead-logging cost of the cheapest
// mutation (a sampled mark): group commit amortizes one CRC frame over many
// records and the encode scratch is pooled per WAL, so the logging side of
// the path allocates nothing — the allocs/op reported here belong to the
// store mutation itself (map growth for the new trace IDs).
func BenchmarkWALMark(b *testing.B) {
	be := New(0)
	if err := be.OpenPersistence(PersistConfig{
		Dir:                b.TempDir(),
		SnapshotEveryBytes: 1 << 40, // keep compactions out of the timing: this measures appends
	}); err != nil {
		b.Fatal(err)
	}
	defer be.ClosePersistence()
	// Unique IDs per iteration: marking a known trace is a dedup no-op that
	// never reaches the WAL.
	ids := make([]string, b.N)
	for i := range ids {
		ids[i] = fmt.Sprintf("trace-%012d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.MarkSampled(ids[i], "bench")
	}
}
