package agent

import (
	"repro/internal/buffer"
	"repro/internal/parser"
	"repro/internal/sampler"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Rebuild implements the reconstruct interface of §4.1: "when the system
// changes, developers trigger Mint's reconstruct interface to rebuild the
// patterns since previous ones may become outdated." It discards the
// agent's pattern libraries, Params Buffer and sampler state, then re-warms
// the span parser on the provided sample of recent raw spans.
//
// The backend keeps previously uploaded patterns (historical traces still
// reconstruct against them); only the agent's live state restarts. Pattern
// and Bloom deltas not yet drained are discarded with it, so the caller
// uploads them first (mint's Cluster.Rebuild flushes each collector).
func (a *Agent) Rebuild(warmupSpans []*trace.Span) {
	a.mu.Lock()
	defer a.mu.Unlock()

	a.parser = parser.New(a.cfg.Parser)
	a.topoLib = topo.NewLibrary(a.cfg.BloomBufBytes, a.cfg.BloomFPP)
	a.buf = buffer.New(a.cfg.ParamsBufBytes)
	if !a.cfg.DisableSamplers {
		a.symptom = sampler.NewSymptom(a.cfg.Symptom)
		a.edge = sampler.NewEdgeCase(a.cfg.EdgeCase, a.topoLib)
	}
	a.pendingSpanPat = map[string]*parser.SpanPattern{}
	a.pendingTopoPat = map[string]*topo.Pattern{}
	a.watchFullFilters()
	if len(warmupSpans) > 0 {
		a.parser.Warmup(warmupSpans)
	}
}
