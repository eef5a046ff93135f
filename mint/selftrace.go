package mint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// selfTracer renders the deployment's own pipeline stages as spans and
// feeds them back through a hidden collector on the reserved "mint-self"
// node — mint traces mint. Each observed operation becomes one tiny trace:
// an OTLP ingest request is a root "ingest-request" span with "decode" and
// "shard-apply" children, a served RPC frame is an "rpc-request" root with
// "queue-wait" and "serve" children, and a WAL flush is a single
// "wal-flush" span. The traces ride the ordinary capture path (agent parse,
// pattern extraction, Bloom membership, params buffering), so the engine's
// internals answer to the same Query/FindTraces surface it serves.
//
// Isolation is what makes the knob safe to leave on: trace IDs carry the
// telemetry.SelfTracePrefix, the backend skips self segments when probing
// ordinary IDs, and predicate searches only surface self spans for filters
// naming Service "mint-self" — query answers for real traces are identical
// with self-tracing on or off (pinned by the parity oracle's self_trace
// row).
//
// Pending traces batch under a mutex and flush to the collector every
// selfFlushBatch traces and on drain (Flush/Close), keeping observer
// callbacks — which run on ingest and RPC hot paths — cheap. The self
// collector ingests synchronously on the caller's goroutine; it never
// observes itself, so there is no recursion.
type selfTracer struct {
	col *collector.Collector

	mu      sync.Mutex
	pending []*Trace
	seq     uint64

	spansFed atomic.Int64
}

// selfFlushBatch is how many pending self traces accumulate before the
// observer that tips the batch ingests them.
const selfFlushBatch = 16

func newSelfTracer(col *collector.Collector) *selfTracer {
	return &selfTracer{col: col}
}

// span builds one self span. Self spans live entirely on the reserved node
// and service, which is what the backend's isolation checks key on.
func selfSpan(traceID, spanID, parentID, op string, kind Kind, start time.Time, d time.Duration, attrs map[string]AttrValue) *Span {
	return &Span{
		TraceID:    traceID,
		SpanID:     spanID,
		ParentID:   parentID,
		Service:    telemetry.SelfNode,
		Node:       telemetry.SelfNode,
		Operation:  op,
		Kind:       kind,
		StartUnix:  start.UnixMicro(),
		Duration:   d.Microseconds(),
		Status:     trace.StatusOK,
		Attributes: attrs,
	}
}

// observeIngest records one OTLP ingest request as a three-span pipeline
// trace: ingest-request → decode, shard-apply.
func (st *selfTracer) observeIngest(encoding string, reqStart, decodeDone, capDone time.Time, spans int) {
	st.mu.Lock()
	st.seq++
	id := fmt.Sprintf("%s%08x", telemetry.SelfTracePrefix, st.seq)
	t := &Trace{TraceID: id, Spans: []*Span{
		selfSpan(id, "s1", "", "ingest-request", KindServer, reqStart, capDone.Sub(reqStart),
			map[string]AttrValue{"encoding": Str(encoding)}),
		selfSpan(id, "s2", "s1", "decode", KindInternal, reqStart, decodeDone.Sub(reqStart),
			map[string]AttrValue{"encoding": Str(encoding)}),
		selfSpan(id, "s3", "s2", "shard-apply", KindInternal, decodeDone, capDone.Sub(decodeDone),
			map[string]AttrValue{"spans": Num(float64(spans))}),
	}}
	st.addLocked(t)
}

// observeRPC records one served RPC frame as a queue-wait + serve pipeline
// trace. It is the rpc.Server op-observer callback (mintd -self-trace).
func (st *selfTracer) observeRPC(o rpc.OpObservation) {
	end := time.Now()
	served := end.Add(-o.Service)
	start := served.Add(-o.QueueWait)
	st.mu.Lock()
	st.seq++
	id := fmt.Sprintf("%s%08x", telemetry.SelfTracePrefix, st.seq)
	t := &Trace{TraceID: id, Spans: []*Span{
		selfSpan(id, "s1", "", "rpc-request", KindServer, start, end.Sub(start),
			map[string]AttrValue{"op": Str(o.Op), "bytes": Num(float64(o.Bytes))}),
		selfSpan(id, "s2", "s1", "queue-wait", KindInternal, start, o.QueueWait, nil),
		selfSpan(id, "s3", "s2", "serve", KindInternal, served, o.Service,
			map[string]AttrValue{"op": Str(o.Op)}),
	}}
	st.addLocked(t)
}

// observeWALFlush records one durable flush as a single-span trace.
func (st *selfTracer) observeWALFlush(start time.Time, d time.Duration) {
	st.mu.Lock()
	st.seq++
	id := fmt.Sprintf("%s%08x", telemetry.SelfTracePrefix, st.seq)
	t := &Trace{TraceID: id, Spans: []*Span{
		selfSpan(id, "s1", "", "wal-flush", KindInternal, start, d, nil),
	}}
	st.addLocked(t)
}

// addLocked queues one self trace and, when the batch is full, takes it and
// ingests outside the lock (collector ingest takes shard locks and must not
// serialize observers behind it). Callers hold st.mu; it is released here.
func (st *selfTracer) addLocked(t *Trace) {
	st.pending = append(st.pending, t)
	var batch []*Trace
	if len(st.pending) >= selfFlushBatch {
		batch = st.pending
		st.pending = nil
	}
	st.mu.Unlock()
	st.feed(batch)
}

// feed ingests a batch of self traces through the hidden collector. A
// sampled self trace completes its coherence locally: only the self node
// holds its params.
func (st *selfTracer) feed(batch []*Trace) {
	for _, t := range batch {
		for _, sub := range trace.BuildSubTraces(telemetry.SelfNode, t.Spans) {
			res := st.col.Ingest(sub)
			if len(res.Samples) > 0 {
				st.col.ReportSampled(sub.TraceID)
			}
		}
		st.spansFed.Add(int64(len(t.Spans)))
	}
}

// drain ingests everything pending and flushes the self collector's pattern
// and Bloom state so the self traces are immediately queryable. Called from
// Flush and Close.
func (st *selfTracer) drain() {
	st.mu.Lock()
	batch := st.pending
	st.pending = nil
	st.mu.Unlock()
	st.feed(batch)
	st.col.FlushPatterns()
}

// SpansFed reports how many self spans have been ingested so far (the
// mint_selftrace_spans_total counter).
func (st *selfTracer) SpansFed() int64 { return st.spansFed.Load() }
