package wire

// The coalesced ingest envelope: the RPC transport's fire-and-forget writes
// accumulate heterogeneous ingest operations (pattern reports, Bloom
// reports, params reports, sampling marks) into one buffer and ship them as
// a single frame. An envelope is grown incrementally by whichever operation
// arrives next, so it encodes as tagged entries until the payload is
// exhausted; report entries carry the report codecs' body encodings. Tags
// are part of the wire format and must not be renumbered.

import "fmt"

// Envelope entry tags.
const (
	tagPatternReport = 1
	tagBloomReport   = 2
	tagParamsReport  = 3
	tagMarkOp        = 4
)

// OpSink consumes decoded envelope operations in arrival order. It is the
// ingest subset of the backend's surface (collector.Sink plus sampling
// marks); *backend.Backend satisfies it, which is how the RPC server applies
// an envelope without this package importing the backend.
type OpSink interface {
	// AcceptPatterns ingests one pattern report.
	AcceptPatterns(r *PatternReport)
	// AcceptBloom ingests one Bloom filter report; immutable carries the
	// report's Full flag.
	AcceptBloom(r *BloomReport, immutable bool)
	// AcceptParams ingests one sampled trace's parameter report.
	AcceptParams(r *ParamsReport)
	// MarkSampled records one trace-coherence sampling decision.
	MarkSampled(traceID, reason string)
}

// AppendPatternOp appends one tagged pattern-report entry to an envelope.
func AppendPatternOp(dst []byte, r *PatternReport) []byte {
	dst = append(dst, tagPatternReport)
	return AppendPatternReport(dst, r)
}

// AppendBloomOp appends one tagged Bloom-report entry to an envelope.
func AppendBloomOp(dst []byte, r *BloomReport) []byte {
	dst = append(dst, tagBloomReport)
	return AppendBloomReport(dst, r)
}

// AppendParamsOp appends one tagged params-report entry to an envelope.
func AppendParamsOp(dst []byte, r *ParamsReport) []byte {
	dst = append(dst, tagParamsReport)
	return AppendParamsReport(dst, r)
}

// AppendMarkOp appends one tagged sampling-mark entry to an envelope.
func AppendMarkOp(dst []byte, traceID, reason string) []byte {
	dst = append(dst, tagMarkOp)
	dst = AppendString(dst, traceID)
	return AppendString(dst, reason)
}

// WalkEnvelope decodes a coalesced ingest envelope and applies each
// operation to sink in encoding order. Operations are applied as they
// decode, so a malformed tail reports an error after the intact prefix has
// already been ingested — the transport surfaces that as an error frame for
// the envelope, and the intact prefix stays applied.
func WalkEnvelope(payload []byte, sink OpSink) error {
	d := NewDecoder(payload)
	for d.More() {
		switch tag := d.Byte(); tag {
		case tagPatternReport:
			if r := decodePatternReport(d); d.Err() == nil {
				sink.AcceptPatterns(r)
			}
		case tagBloomReport:
			if r := decodeBloomReportBody(d); d.Err() == nil {
				sink.AcceptBloom(r, r.Full)
			}
		case tagParamsReport:
			if r := decodeParamsReportBody(d); d.Err() == nil {
				sink.AcceptParams(r)
			}
		case tagMarkOp:
			traceID, reason := d.Str(), d.Str()
			if d.Err() == nil {
				sink.MarkSampled(traceID, reason)
			}
		default:
			d.Fail(fmt.Sprintf("unknown envelope op tag %d", tag))
		}
	}
	return d.Err()
}
