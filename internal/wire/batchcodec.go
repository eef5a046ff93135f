package wire

// Wire encodings for the report envelopes themselves — PatternReport and the
// coalescing Batch — so a collector's reports can cross a real network, not
// just the in-process byte meter. The durable storage engine already defined
// canonical encodings for the payloads a report carries (span patterns, topo
// patterns, Bloom filters, params); this file composes them into
// self-delimiting report bodies that the RPC transport frames.
//
// A Batch encodes as its node name, a report count, and one tagged report
// per entry. Tags are part of the wire format and must not be renumbered.

import (
	"encoding/binary"
	"fmt"
)

// Report tags used inside an encoded Batch.
const (
	tagPatternReport = 1
	tagBloomReport   = 2
	tagParamsReport  = 3
)

// AppendPatternReport appends one pattern report's encoding to dst.
func AppendPatternReport(dst []byte, r *PatternReport) []byte {
	dst = AppendString(dst, r.Node)
	dst = binary.AppendUvarint(dst, uint64(len(r.SpanPatterns)))
	for _, p := range r.SpanPatterns {
		dst = AppendSpanPattern(dst, p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.TopoPatterns)))
	for _, p := range r.TopoPatterns {
		dst = AppendTopoPattern(dst, p)
	}
	return dst
}

// MarshalPatternReport encodes one pattern report.
func MarshalPatternReport(r *PatternReport) []byte {
	return AppendPatternReport(nil, r)
}

// decodePatternReport reads one pattern report body from d.
func decodePatternReport(d *Decoder) *PatternReport {
	r := &PatternReport{Node: d.Str()}
	nSpan := d.Count()
	for i := 0; i < nSpan && d.Err() == nil; i++ {
		r.SpanPatterns = append(r.SpanPatterns, decodeSpanPatternBody(d))
	}
	nTopo := d.Count()
	for i := 0; i < nTopo && d.Err() == nil; i++ {
		r.TopoPatterns = append(r.TopoPatterns, decodeTopoPatternBody(d))
	}
	return r
}

// UnmarshalPatternReport decodes a payload written by MarshalPatternReport.
func UnmarshalPatternReport(payload []byte) (*PatternReport, error) {
	d := NewDecoder(payload)
	r := decodePatternReport(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// AppendBatch appends one coalesced report batch's encoding to dst. Every
// report kind a Batch can legally carry (pattern, Bloom, params) has a tag;
// encoding a batch holding any other Message kind panics — nothing else is
// ever enqueued by a collector.
func AppendBatch(dst []byte, b *Batch) []byte {
	dst = AppendString(dst, b.Node)
	dst = binary.AppendUvarint(dst, uint64(len(b.Reports)))
	for _, msg := range b.Reports {
		switch m := msg.(type) {
		case *PatternReport:
			dst = append(dst, tagPatternReport)
			dst = AppendPatternReport(dst, m)
		case *BloomReport:
			dst = append(dst, tagBloomReport)
			dst = AppendBloomReport(dst, m)
		case *ParamsReport:
			dst = append(dst, tagParamsReport)
			dst = AppendParamsReport(dst, m)
		default:
			panic(fmt.Sprintf("wire: batch cannot carry %T", msg))
		}
	}
	return dst
}

// MarshalBatch encodes one coalesced report batch.
func MarshalBatch(b *Batch) []byte { return AppendBatch(nil, b) }

// UnmarshalBatch decodes a payload written by MarshalBatch. The decoded
// reports are fresh allocations; nothing aliases the payload (bloom.Unmarshal
// rebuilds each filter's bit array).
func UnmarshalBatch(payload []byte) (*Batch, error) {
	d := NewDecoder(payload)
	b := &Batch{Node: d.Str()}
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		switch tag := d.Byte(); tag {
		case tagPatternReport:
			b.Reports = append(b.Reports, decodePatternReport(d))
		case tagBloomReport:
			b.Reports = append(b.Reports, decodeBloomReportBody(d))
		case tagParamsReport:
			b.Reports = append(b.Reports, decodeParamsReportBody(d))
		default:
			d.Fail(fmt.Sprintf("unknown batch report tag %d", tag))
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return b, nil
}
