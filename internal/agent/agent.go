// Package agent implements mint-agent (§4.1): the per-node component that
// parses spans, maintains the Pattern Libraries and Params Buffer, and runs
// the Symptom and Edge-Case samplers.
package agent

import (
	"sync"

	"repro/internal/bloom"
	"repro/internal/buffer"
	"repro/internal/parser"
	"repro/internal/sampler"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config bundles the tunables of one agent. Zero fields take paper defaults.
type Config struct {
	Parser          parser.Config
	Symptom         sampler.SymptomConfig
	EdgeCase        sampler.EdgeCaseConfig
	ParamsBufBytes  int     // Params Buffer capacity (default 4 MB)
	BloomBufBytes   int     // per-filter buffer (default 4 KB)
	BloomFPP        float64 // default 0.01
	HeadSampleRate  float64 // optional extra head sampling (0 disables)
	DisableSamplers bool    // turn off symptom/edge-case samplers
}

// SampleEvent is emitted when a sampler marks a trace.
type SampleEvent struct {
	TraceID string
	Reason  string
}

// IngestResult summarizes one sub-trace ingestion.
type IngestResult struct {
	TopoPatternID string
	NewTopo       bool
	Samples       []SampleEvent
	RawBytes      int // serialized size of the raw sub-trace
	// Noticed is set by the collector when the trace's sampling notice came
	// first: the sub-trace's params went out at once, and no notice is due.
	Noticed bool
}

// Agent is one mint-agent instance on an application node. It is safe for
// concurrent Ingest: the per-agent mutex serializes the parse/buffer/mount
// sequence of one sub-trace, so concurrent captures on different nodes run
// fully in parallel while captures racing on one node queue briefly.
type Agent struct {
	Node string

	mu       sync.Mutex
	parser   *parser.Parser
	topoLib  *topo.Library
	buf      *buffer.Buffer
	symptom  *sampler.Symptom
	edge     *sampler.EdgeCase
	head     *sampler.Head
	cfg      Config
	ingested uint64

	// Per-agent scratch reused across Ingest calls (guarded by mu): the
	// topology encoder and the span-ID → parsed-span index.
	enc    *topo.Encoder
	parsed map[string]*parser.ParsedSpan

	// unreported pattern deltas since the last collector flush
	pendingSpanPat map[string]*parser.SpanPattern
	pendingTopoPat map[string]*topo.Pattern

	// cbMu guards onBloomFull separately from mu: the callback fires from
	// inside Ingest (mu held), so it must not require mu itself.
	cbMu        sync.RWMutex
	onBloomFull func(patternID string, f *bloom.Filter)
}

// New creates an agent for a node.
func New(node string, cfg Config) *Agent {
	a := &Agent{
		Node:           node,
		parser:         parser.New(cfg.Parser),
		topoLib:        topo.NewLibrary(cfg.BloomBufBytes, cfg.BloomFPP),
		buf:            buffer.New(cfg.ParamsBufBytes),
		cfg:            cfg,
		pendingSpanPat: map[string]*parser.SpanPattern{},
		pendingTopoPat: map[string]*topo.Pattern{},
		enc:            topo.NewEncoder(),
		parsed:         map[string]*parser.ParsedSpan{},
	}
	if !cfg.DisableSamplers {
		a.symptom = sampler.NewSymptom(cfg.Symptom)
		a.edge = sampler.NewEdgeCase(cfg.EdgeCase, a.topoLib)
	}
	if cfg.HeadSampleRate > 0 {
		a.head = sampler.NewHead(cfg.HeadSampleRate)
	}
	a.watchFullFilters()
	return a
}

// watchFullFilters forwards the topo library's Bloom-full events to the
// registered onBloomFull callback, read under cbMu at each event.
func (a *Agent) watchFullFilters() {
	a.topoLib.OnFilterFull(func(id string, f *bloom.Filter) {
		a.cbMu.RLock()
		cb := a.onBloomFull
		a.cbMu.RUnlock()
		if cb != nil {
			cb(id, f)
		}
	})
}

// OnBloomFull registers the collector callback fired when a pattern's Bloom
// filter reaches its buffer limit and must be reported immediately.
func (a *Agent) OnBloomFull(fn func(patternID string, f *bloom.Filter)) {
	a.cbMu.Lock()
	a.onBloomFull = fn
	a.cbMu.Unlock()
}

// Warmup trains the span parser offline on sampled raw spans (§3.2.1).
func (a *Agent) Warmup(spans []*trace.Span) { a.parser.Warmup(spans) }

// Ingest processes one sub-trace generated on this node: inter-span parsing,
// params buffering, inter-trace parsing, Bloom mounting, and sampling.
func (a *Agent) Ingest(st *trace.SubTrace) IngestResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ingested++

	res := IngestResult{RawBytes: st.Size()}
	clear(a.parsed)
	parsed := a.parsed
	var samples []SampleEvent
	mark := func(reason string) {
		for _, ev := range samples {
			if ev.Reason == reason {
				return
			}
		}
		samples = append(samples, SampleEvent{TraceID: st.TraceID, Reason: reason})
	}

	for _, s := range st.Spans {
		pat, ps := a.parser.Parse(s)
		parsed[s.SpanID] = ps
		a.buf.Push(ps)
		if _, ok := a.pendingSpanPat[pat.ID]; !ok {
			a.pendingSpanPat[pat.ID] = pat
		}
		if a.symptom != nil {
			// Error status codes are the canonical abnormal value
			// (§4.2's "status code 502" example).
			if s.Status >= 400 {
				mark("abnormal:status")
			}
			if d := a.symptom.Inspect(pat, ps); d.Sampled {
				mark(d.Reason)
			}
		}
	}

	enc := a.enc.Encode(st, parsed)
	pat, isNew := a.topoLib.Mount(enc.Pattern, st.TraceID)
	res.TopoPatternID = pat.ID
	res.NewTopo = isNew
	if isNew {
		a.pendingTopoPat[pat.ID] = pat
	}
	if a.edge != nil {
		if d := a.edge.Inspect(pat.ID); d.Sampled {
			mark(d.Reason)
		}
	}
	if a.head != nil && a.head.Sample(st.TraceID) {
		mark("head")
	}
	res.Samples = samples
	return res
}

// TakeParams removes and returns the buffered parameters for a trace, used
// by the collector when the trace is marked sampled anywhere in the cluster.
func (a *Agent) TakeParams(traceID string) ([]*parser.ParsedSpan, bool) {
	blk, ok := a.buf.Take(traceID)
	if !ok {
		return nil, false
	}
	return blk.Spans, true
}

// DrainPatternDeltas returns (and clears) the span/topo patterns discovered
// since the previous drain; the collector uploads these periodically.
func (a *Agent) DrainPatternDeltas() ([]*parser.SpanPattern, []*topo.Pattern) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := make([]*parser.SpanPattern, 0, len(a.pendingSpanPat))
	for _, p := range a.pendingSpanPat {
		sp = append(sp, p)
	}
	tp := make([]*topo.Pattern, 0, len(a.pendingTopoPat))
	for _, p := range a.pendingTopoPat {
		tp = append(tp, p)
	}
	a.pendingSpanPat = map[string]*parser.SpanPattern{}
	a.pendingTopoPat = map[string]*topo.Pattern{}
	return sp, tp
}

// UploadBloomDeltas is the Bloom half of the periodic upload: for every
// pattern whose filter gained trace IDs since the previous call it hands send
// a filter holding just those IDs, in pattern-ID order. It runs under the
// ingest lock — the lock a full filter is cut and reported under
// (OnBloomFull) — so for one pattern, deltas and full filters reach send in
// the order they were cut, which is the order the backend must apply them in.
// send must not call back into the agent.
func (a *Agent) UploadBloomDeltas(send func(patternID string, delta *bloom.Filter)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, d := range a.topoLib.TakeFilterDeltas() {
		send(d.PatternID, d.Filter)
	}
}

// Parser exposes the span parser (stats, reconstruction helpers).
func (a *Agent) Parser() *parser.Parser { return a.parser }

// TopoLibrary exposes the topo pattern library.
func (a *Agent) TopoLibrary() *topo.Library { return a.topoLib }

// Buffer exposes the Params Buffer.
func (a *Agent) Buffer() *buffer.Buffer { return a.buf }

// Ingested returns the number of sub-traces processed.
func (a *Agent) Ingested() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ingested
}

// Reconstruct rebuilds the reconstruction of whatever pattern/params pair is
// handed to it, using this agent's bucket mapper. Exposed for tests.
func (a *Agent) Reconstruct(pat *parser.SpanPattern, ps *parser.ParsedSpan) *trace.Span {
	return a.parser.Reconstruct(pat, ps, a.Node)
}
