package mint

import (
	"time"

	"repro/internal/otlp"
	"repro/internal/otlp/pb"
	"repro/internal/trace"
)

// CaptureOTLP ingests an OTLP/JSON export payload received on one node:
// the payload's spans are decoded, grouped into per-trace sub-traces and
// fed to that node's agent — the protocol-decoupled ingestion path of
// §4.1. Sampling decisions propagate cluster-wide as with Capture.
//
// Unlike Capture (which sees a complete trace), an OTLP payload carries
// whatever the local SDK exported; Mint's per-node design needs nothing
// more.
// On a closed cluster it ingests nothing and returns ErrClosed.
func (c *Cluster) CaptureOTLP(node string, payload []byte) error {
	_, err := c.captureOTLPCounted(node, payload)
	return err
}

// captureOTLPCounted is CaptureOTLP returning the span count ingested, for
// the HTTP endpoint's metrics.
func (c *Cluster) captureOTLPCounted(node string, payload []byte) (int, error) {
	if err := c.checkOpen(); err != nil {
		return 0, err
	}
	reqStart := time.Now()
	spans, err := otlp.Decode(payload, node)
	decodeDone := time.Now()
	c.histDecodeJSON.Observe(decodeDone.Sub(reqStart))
	if err != nil {
		return 0, err
	}
	n, err := c.captureSpans(node, spans)
	c.observeOTLP("json", len(payload), reqStart, decodeDone, n)
	return n, err
}

// CaptureOTLPProto ingests an OTLP/protobuf export payload
// (ExportTraceServiceRequest, the binary encoding stock SDK exporters emit)
// received on one node. It is the zero-allocation twin of CaptureOTLP: the
// payload is decoded by a pooled wire walker whose scratch spans feed the
// capture path and are recycled before returning, and the low-cardinality
// strings (service names, span names, attribute keys) resolve through the
// cluster's intern dictionary. A payload ingested here and its OTLP/JSON
// equivalent ingested through CaptureOTLP produce byte-identical query
// results.
// On a closed cluster it ingests nothing and returns ErrClosed.
func (c *Cluster) CaptureOTLPProto(node string, payload []byte) error {
	_, err := c.captureOTLPProtoCounted(node, payload)
	return err
}

// captureOTLPProtoCounted is CaptureOTLPProto returning the span count
// ingested, for the HTTP endpoint's metrics.
func (c *Cluster) captureOTLPProtoCounted(node string, payload []byte) (int, error) {
	if err := c.checkOpen(); err != nil {
		return 0, err
	}
	reqStart := time.Now()
	dec, _ := c.otlpDecoders.Get().(*pb.Decoder)
	if dec == nil {
		dec = pb.NewDecoder(c.otlpDict)
	}
	spans, err := dec.Decode(payload, node)
	decodeDone := time.Now()
	c.histDecodeProto.Observe(decodeDone.Sub(reqStart))
	if err != nil {
		c.otlpDecoders.Put(dec)
		return 0, err
	}
	n, err := c.captureSpans(node, spans)
	// The agents copied what they keep (parsed patterns and immutable
	// strings, never the span structs or attribute maps), so the decoder's
	// scratch can recycle immediately.
	c.otlpDecoders.Put(dec)
	c.observeOTLP("proto", len(payload), reqStart, decodeDone, n)
	return n, err
}

// captureSpans feeds decoded OTLP spans to one node's collector, grouped
// into per-trace sub-traces — the ingest tail shared by both front-door
// encodings, which is what keeps their query results byte-identical.
func (c *Cluster) captureSpans(node string, spans []*trace.Span) (int, error) {
	col, ok := c.collectors[node]
	if !ok {
		return 0, errUnknownNode(node)
	}
	for _, st := range trace.BuildSubTraces(node, spans) {
		c.ingest(col, st)
	}
	return len(spans), nil
}

// observeOTLP records one OTLP ingest's capture-tail latency (the decode
// half was observed at its call site, where the error path still needs the
// histogram fed), gates the slow-op ledger, and — under Config.SelfTrace —
// renders the request as an ingest-request → decode → shard-apply self
// trace.
func (c *Cluster) observeOTLP(encoding string, payloadBytes int, reqStart, decodeDone time.Time, spans int) {
	capDone := time.Now()
	d := capDone.Sub(decodeDone)
	c.histCapture.Observe(d)
	if c.slow.Exceeds(d) {
		c.slow.Record("otlp-"+encoding, "", d, int64(payloadBytes), -1)
	}
	if c.selfTr != nil {
		c.selfTr.observeIngest(encoding, reqStart, decodeDone, capDone, spans)
	}
}

// EncodeOTLP renders spans as an OTLP/JSON export payload, for shipping
// Mint-reconstructed traces back into OpenTelemetry tooling.
func EncodeOTLP(spans []*Span) ([]byte, error) { return otlp.Encode(spans) }

// EncodeOTLPProto renders spans as an OTLP/protobuf export payload — the
// binary twin of EncodeOTLP, byte-compatible with what an SDK exporter
// would POST as application/x-protobuf.
func EncodeOTLPProto(spans []*Span) ([]byte, error) { return pb.MarshalSpans(spans) }

type errUnknownNode string

func (e errUnknownNode) Error() string { return "mint: unknown node " + string(e) }
