package mint

import (
	"repro/internal/collector"
	"repro/internal/wire"
)

// SetReportTeeForTest makes every Cluster assembled until restore deliver its
// collectors' reports and its sampling marks to wrap(sink) instead of
// straight into its store, where sink is that store's own report surface.
// Queries and persistence still go to the store. It must not be called while
// clusters are being assembled.
func SetReportTeeForTest(wrap func(sink collector.Sink) collector.Sink) (restore func()) {
	prev := testHookStore
	testHookStore = func(s store) store { return teedStore{s, wrap(s)} }
	return func() { testHookStore = prev }
}

// teedStore is a store whose report surface is replaced.
type teedStore struct {
	store
	sink collector.Sink
}

func (t teedStore) AcceptPatterns(r *wire.PatternReport)       { t.sink.AcceptPatterns(r) }
func (t teedStore) AcceptBloom(r *wire.BloomReport, full bool) { t.sink.AcceptBloom(r, full) }
func (t teedStore) AcceptParams(r *wire.ParamsReport)          { t.sink.AcceptParams(r) }
func (t teedStore) MarkSampled(traceID, reason string)         { t.sink.MarkSampled(traceID, reason) }
