// Package wire defines the report messages exchanged between Mint agents,
// collectors and the backend, together with the byte meter used to measure
// network overhead. Every evaluation number about bandwidth is a sum of
// Size() values recorded through a Meter, which is exactly how the paper
// measures "trace data network bandwidth (MB/min)".
package wire

import (
	"sync"

	"repro/internal/bloom"
	"repro/internal/parser"
	"repro/internal/topo"
)

// Message is anything with a serialized size that travels over the network.
type Message interface {
	// Size returns the serialized size of the message in bytes.
	Size() int
	// Kind names the message type for per-kind accounting.
	Kind() string
}

const headerBytes = 16 // trace protocol framing per message

// PatternReport carries new span and topo patterns from a collector to the
// backend (step ④, uploaded periodically).
type PatternReport struct {
	Node         string
	SpanPatterns []*parser.SpanPattern
	TopoPatterns []*topo.Pattern
}

// Size implements Message.
func (r *PatternReport) Size() int {
	n := headerBytes + len(r.Node)
	for _, p := range r.SpanPatterns {
		n += p.Size()
	}
	for _, p := range r.TopoPatterns {
		n += p.Size()
	}
	return n
}

// Kind implements Message.
func (r *PatternReport) Kind() string { return "patterns" }

// BloomReport carries one topo pattern's Bloom filter: either the whole
// filter, once it is full, or a periodic upload's delta.
type BloomReport struct {
	Node      string
	PatternID string
	Filter    *bloom.Filter
	// Full marks a filter that reached capacity and was reported immediately
	// (an immutable segment at the backend, retiring the pair's live one);
	// false means a delta: a filter of only the trace IDs mounted since the
	// pair's previous periodic upload, which the backend ORs into the pair's
	// live segment. The bit rides in the message framing, so it does not
	// change Size().
	Full bool
}

// Size implements Message. The filter counts at its encoded size (see
// bloom.AppendMarshal): the bytes AppendBloomReport actually ships.
func (r *BloomReport) Size() int {
	return headerBytes + len(r.Node) + len(r.PatternID) + r.Filter.MarshaledSize()
}

// Kind implements Message.
func (r *BloomReport) Kind() string { return "bloom" }

// ParamsReport carries the variable parameters of one sampled trace from one
// node (step ⑥).
type ParamsReport struct {
	Node    string
	TraceID string
	Spans   []*parser.ParsedSpan
}

// Size implements Message.
func (r *ParamsReport) Size() int {
	n := headerBytes + len(r.Node) + len(r.TraceID)
	for _, s := range r.Spans {
		n += s.Size()
	}
	return n
}

// Kind implements Message.
func (r *ParamsReport) Kind() string { return "params" }

// SampleNotice tells collectors that a trace has been marked sampled and its
// parameters should be reported from every node (trace coherence, §6.2).
type SampleNotice struct {
	TraceID string
	Reason  string
}

// Size implements Message.
func (n *SampleNotice) Size() int { return headerBytes + len(n.TraceID) + len(n.Reason) }

// Kind implements Message.
func (n *SampleNotice) Kind() string { return "notice" }

// Batch is the coalescing envelope of the async reporting pipeline: the
// pattern, Bloom and params reports a collector accumulated during one flush
// interval, framed once. Its size is the amortized encoded size — one
// protocol header for the whole batch plus each report's payload (its Size()
// minus the per-message header it would have cost sent alone) — replacing
// the one-message-per-report accounting of the synchronous path.
type Batch struct {
	Node    string
	Reports []Message
}

// Append adds a report to the batch.
func (b *Batch) Append(msg Message) { b.Reports = append(b.Reports, msg) }

// Len returns the number of coalesced reports.
func (b *Batch) Len() int { return len(b.Reports) }

// Reset empties the batch for reuse, keeping the reports slice's capacity.
// Async reporters recycle one envelope per flush cycle instead of
// allocating a fresh one per delivery.
func (b *Batch) Reset() {
	for i := range b.Reports {
		b.Reports[i] = nil // release the delivered reports for collection
	}
	b.Reports = b.Reports[:0]
}

// Size implements Message: one header plus the headerless payload sizes.
func (b *Batch) Size() int {
	n := headerBytes + len(b.Node)
	for _, msg := range b.Reports {
		n += msg.Size() - headerBytes
	}
	return n
}

// Kind implements Message.
func (b *Batch) Kind() string { return "batch" }

// RawSpanReport is what baseline frameworks send: serialized raw spans.
type RawSpanReport struct {
	Node  string
	Bytes int
}

// Size implements Message.
func (r *RawSpanReport) Size() int { return headerBytes + len(r.Node) + r.Bytes }

// Kind implements Message.
func (r *RawSpanReport) Kind() string { return "raw" }

// Meter tallies network bytes by node and message kind.
type Meter struct {
	mu     sync.Mutex
	total  int64
	byNode map[string]int64
	byKind map[string]int64
}

// NewMeter creates an empty meter.
func NewMeter() *Meter {
	return &Meter{byNode: map[string]int64{}, byKind: map[string]int64{}}
}

// Record accounts one message sent by node.
func (m *Meter) Record(node string, msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sz := int64(msg.Size())
	m.total += sz
	m.byNode[node] += sz
	m.byKind[msg.Kind()] += sz
}

// RecordBatch accounts one batch envelope sent by node. The coalesced
// reports' payload bytes are attributed to their own kinds (so per-kind
// accounting stays comparable to the synchronous path) and the shared
// framing — one header instead of one per report — under kind "batch". The
// recorded total equals b.Size() exactly.
func (m *Meter) RecordBatch(node string, b *Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := int64(b.Size())
	framing := total
	for _, msg := range b.Reports {
		payload := int64(msg.Size() - headerBytes)
		m.byKind[msg.Kind()] += payload
		framing -= payload
	}
	m.byKind["batch"] += framing
	m.total += total
	m.byNode[node] += total
}

// Total returns the total bytes recorded.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// ByKind returns bytes recorded for one message kind.
func (m *Meter) ByKind(kind string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byKind[kind]
}

// ByNode returns bytes recorded for one node.
func (m *Meter) ByNode(node string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byNode[node]
}
