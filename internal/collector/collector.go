// Package collector implements mint-collector (§4.2): the per-host component
// that periodically reports patterns from the Pattern Library, immediately
// reports Bloom filters when they reach their size limit, and uploads a
// sampled trace's parameters from every host when notified by the backend,
// and at once for a sub-trace that arrives after its trace's notice.
//
// A collector is safe for concurrent Ingest. Every report is metered and
// applied to the backend inline, on the goroutine that cut it.
package collector

import (
	"sync"

	"repro/internal/agent"
	"repro/internal/bloom"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Sink is where a collector's reports land: the backend's report-accepting
// surface, satisfied both by the in-process *backend.Backend and by the RPC
// client that ships the same reports to a remote mintd. Implementations
// must be safe for concurrent use; collectors report from every ingest
// goroutine.
type Sink interface {
	// AcceptPatterns applies a pattern report.
	AcceptPatterns(r *wire.PatternReport)
	// AcceptBloom applies a Bloom filter report. immutable is the report's
	// Full flag: a full filter becomes a frozen segment, anything else is a
	// delta merged into the node+pattern's live segment. For one node and
	// pattern, reports must be applied in the order they were sent.
	AcceptBloom(r *wire.BloomReport, immutable bool)
	// AcceptParams applies a sampled trace's parameter report.
	AcceptParams(r *wire.ParamsReport)
	// MarkSampled records a trace-coherence sampling decision.
	MarkSampled(traceID, reason string)
}

// Collector wires one agent to the backend and meters every byte it sends.
type Collector struct {
	agent   *agent.Agent
	backend Sink
	meter   *wire.Meter

	mu      sync.Mutex
	ring    []string        // the notice window: the last NoticeWindow noticed trace IDs
	head    int             // the oldest ID's slot, the next to be overwritten
	noticed map[string]bool // the IDs in the window
}

// New creates a collector for an agent. Bloom-full events are wired to
// immediate reports, matching the paper's "immediately reports Bloom Filters
// once they reach their size limit".
func New(a *agent.Agent, b Sink, m *wire.Meter) *Collector {
	c := &Collector{agent: a, backend: b, meter: m, ring: make([]string, NoticeWindow), noticed: map[string]bool{}}
	a.OnBloomFull(func(patternID string, f *bloom.Filter) {
		c.send(&wire.BloomReport{Node: a.Node, PatternID: patternID, Filter: f, Full: true})
	})
	return c
}

// send meters one report and applies it to the backend.
func (c *Collector) send(msg wire.Message) {
	c.meter.Record(c.agent.Node, msg)
	switch m := msg.(type) {
	case *wire.PatternReport:
		c.backend.AcceptPatterns(m)
	case *wire.BloomReport:
		c.backend.AcceptBloom(m, m.Full)
	case *wire.ParamsReport:
		c.backend.AcceptParams(m)
	}
}

// Ingest passes a sub-trace to the agent and propagates any sampling
// decisions to the backend (which notifies all collectors). Safe for
// concurrent use.
func (c *Collector) Ingest(st *trace.SubTrace) agent.IngestResult {
	res := c.agent.Ingest(st)
	for _, ev := range res.Samples {
		c.backend.MarkSampled(ev.TraceID, ev.Reason)
	}
	c.mu.Lock()
	res.Noticed = c.noticed[st.TraceID]
	c.mu.Unlock()
	if res.Noticed {
		c.ReportSampled(st.TraceID) // a late sub-trace
	}
	return res
}

// FlushPatterns performs the periodic upload (default cadence: 1 minute of
// virtual time): the patterns discovered and, per Bloom filter, the trace IDs
// mounted since the previous upload.
func (c *Collector) FlushPatterns() {
	sp, tp := c.agent.DrainPatternDeltas()
	if len(sp) > 0 || len(tp) > 0 {
		c.send(&wire.PatternReport{Node: c.agent.Node, SpanPatterns: sp, TopoPatterns: tp})
	}
	c.agent.UploadBloomDeltas(func(patternID string, delta *bloom.Filter) {
		c.send(&wire.BloomReport{Node: c.agent.Node, PatternID: patternID, Filter: delta})
	})
}

// ReportSampled remembers the notice and uploads this host's buffered params
// for the trace (step ⑥ — on every host, when any host samples the trace).
func (c *Collector) ReportSampled(traceID string) {
	c.mu.Lock()
	if !c.noticed[traceID] { // the newest ID overwrites the oldest
		delete(c.noticed, c.ring[c.head])
		c.ring[c.head], c.noticed[traceID] = traceID, true
		c.head = (c.head + 1) % len(c.ring)
	}
	c.mu.Unlock()
	if spans, ok := c.agent.TakeParams(traceID); ok && len(spans) > 0 {
		c.send(&wire.ParamsReport{Node: c.agent.Node, TraceID: traceID, Spans: spans})
	}
}

// NoticeWindow is how many notices a host remembers. A sub-trace that reaches
// its host after NoticeWindow other traces were noticed there is not a late
// report: its params stay buffered, and its trace answers short.
const NoticeWindow = 1024

// Agent returns the wrapped agent.
func (c *Collector) Agent() *agent.Agent { return c.agent }
