package wire

// Binary codecs for the report payloads. The in-memory reports carry live
// pointers (patterns, filters, parsed spans); these routines define their
// canonical wire encoding, used by the backend's durable storage engine to
// write snapshot and WAL records. The encoding is self-delimiting — varint
// lengths, no framing — so callers can wrap it in whatever envelope they
// need (the backend adds a length/CRC frame per record).
//
// Layout conventions: strings and byte slices are uvarint-length-prefixed,
// signed integers use zigzag varints, and repeated fields are preceded by a
// uvarint count. Field order is fixed; there are no tags. Versioning happens
// at the container level (the backend's snapshot header), not per payload.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bloom"
	"repro/internal/parser"
	"repro/internal/topo"
	"repro/internal/trace"
)

// ErrCodec reports a malformed payload handed to one of the Unmarshal
// functions. Decoding errors wrap it, so callers can errors.Is against it.
var ErrCodec = errors.New("wire: malformed payload")

// AppendString appends a uvarint-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Decoder is a cursor over an encoded payload in this package's layout
// conventions. The first malformed read latches the error; subsequent reads
// return zero values, so decode functions can read a whole payload and check
// the error once with Done (or Err). The zero Decoder reads an empty
// payload; NewDecoder starts one over a byte slice. Exported so sibling
// protocol layers (the RPC transport) decode with the same discipline the
// storage engine uses.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder positioned at the start of payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{b: payload} }

// Fail latches a malformed-payload error naming what was being read. Reads
// after Fail return zero values.
func (d *Decoder) Fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCodec, what)
	}
}

// Err returns the latched decode error, if any.
func (d *Decoder) Err() error { return d.err }

// More reports whether undecoded payload bytes remain and no error has
// latched — the loop condition for envelopes that carry tagged entries until
// the payload is exhausted instead of a leading count.
func (d *Decoder) More() bool { return d.err == nil && len(d.b) > 0 }

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads one zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Str reads one length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.Fail("string length")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Bytes reads one length-prefixed byte slice, aliasing the payload.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.Fail("bytes length")
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// Bool reads one boolean byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.Fail("bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

// CapHint bounds a count-prefixed pre-allocation. Count bounds a claimed
// element count against the bytes remaining (one byte per element), but 16+
// bytes of slice/map/string header per pre-allocated slot would still let a
// hostile count amplify an allocation far past the payload size — and these
// payloads arrive over the network since the RPC transport, not just from
// trusted WAL files. Start at a sane capacity and let append grow: a
// hostile count then fails on its first missing element having allocated
// almost nothing.
func CapHint(n int) int {
	const max = 4096
	if n > max {
		return max
	}
	return n
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.Fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Count reads a repeated-field count and sanity-bounds it against the bytes
// remaining, so a corrupt length cannot drive a huge allocation.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.Fail("count exceeds payload")
		return 0
	}
	return int(n)
}

// Done verifies the payload was consumed exactly.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.b))
	}
	return nil
}

// AppendSpanPattern appends one span pattern's encoding to dst; the Append
// forms let the storage engine encode into reused buffers.
func AppendSpanPattern(dst []byte, p *parser.SpanPattern) []byte {
	dst = AppendString(dst, p.ID)
	dst = AppendString(dst, p.Service)
	dst = AppendString(dst, p.Operation)
	dst = append(dst, byte(p.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(p.Attrs)))
	for _, a := range p.Attrs {
		dst = AppendString(dst, a.Key)
		dst = AppendBool(dst, a.IsNum)
		dst = AppendString(dst, a.Pattern)
		dst = binary.AppendVarint(dst, int64(a.NumIndex))
	}
	return dst
}

// MarshalSpanPattern encodes one span pattern.
func MarshalSpanPattern(p *parser.SpanPattern) []byte {
	return AppendSpanPattern(nil, p)
}

// decodeSpanPatternBody reads one span pattern body from d; the body is
// self-delimiting, so it can be embedded in larger payloads (pattern
// reports, batches). The pattern's cached route hash is rederived from its
// ID.
func decodeSpanPatternBody(d *Decoder) *parser.SpanPattern {
	id := d.Str()
	p := &parser.SpanPattern{
		Service:   d.Str(),
		Operation: d.Str(),
	}
	p.SetID(id)
	p.Kind = trace.Kind(d.Byte())
	n := d.Count()
	for i := 0; i < n && d.err == nil; i++ {
		a := parser.AttrPattern{
			Key:     d.Str(),
			IsNum:   d.Bool(),
			Pattern: d.Str(),
		}
		a.NumIndex = int(d.Varint())
		p.Attrs = append(p.Attrs, a)
	}
	return p
}

// UnmarshalSpanPattern decodes a payload written by MarshalSpanPattern. The
// pattern's cached route hash is rederived from its ID.
func UnmarshalSpanPattern(payload []byte) (*parser.SpanPattern, error) {
	d := NewDecoder(payload)
	p := decodeSpanPatternBody(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return p, nil
}

// AppendTopoPattern appends one topology pattern's encoding to dst.
func AppendTopoPattern(dst []byte, p *topo.Pattern) []byte {
	dst = AppendString(dst, p.ID)
	dst = AppendString(dst, p.Node)
	dst = AppendString(dst, p.Entry)
	dst = binary.AppendUvarint(dst, uint64(len(p.Edges)))
	for _, e := range p.Edges {
		dst = AppendString(dst, e.Parent)
		dst = binary.AppendUvarint(dst, uint64(len(e.Children)))
		for _, c := range e.Children {
			dst = AppendString(dst, c)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Exits)))
	for _, x := range p.Exits {
		dst = AppendString(dst, x)
	}
	return dst
}

// MarshalTopoPattern encodes one topology pattern.
func MarshalTopoPattern(p *topo.Pattern) []byte {
	return AppendTopoPattern(nil, p)
}

// decodeTopoPatternBody reads one topo pattern body from d. The pattern's
// cached route hash is rederived from its ID.
func decodeTopoPatternBody(d *Decoder) *topo.Pattern {
	id := d.Str()
	p := &topo.Pattern{
		Node:  d.Str(),
		Entry: d.Str(),
	}
	p.SetID(id)
	nEdges := d.Count()
	for i := 0; i < nEdges && d.err == nil; i++ {
		e := topo.Edge{Parent: d.Str()}
		nc := d.Count()
		for j := 0; j < nc && d.err == nil; j++ {
			e.Children = append(e.Children, d.Str())
		}
		p.Edges = append(p.Edges, e)
	}
	nExits := d.Count()
	for i := 0; i < nExits && d.err == nil; i++ {
		p.Exits = append(p.Exits, d.Str())
	}
	return p
}

// UnmarshalTopoPattern decodes a payload written by MarshalTopoPattern.
func UnmarshalTopoPattern(payload []byte) (*topo.Pattern, error) {
	d := NewDecoder(payload)
	p := decodeTopoPatternBody(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return p, nil
}

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

// AppendBloomReport appends a Bloom filter report's encoding to dst,
// including its Full flag (which rides in the framing on the simulated
// network and so is not part of Size(), but must survive a round-trip
// through storage).
func AppendBloomReport(dst []byte, r *BloomReport) []byte {
	dst = AppendString(dst, r.Node)
	dst = AppendString(dst, r.PatternID)
	dst = AppendBool(dst, r.Full)
	dst = binary.AppendUvarint(dst, uint64(r.Filter.MarshaledSize()))
	return r.Filter.AppendMarshal(dst)
}

// MarshalBloomReport encodes a Bloom filter report.
func MarshalBloomReport(r *BloomReport) []byte {
	return AppendBloomReport(nil, r)
}

// decodeBloomReportBody reads one Bloom report body from d.
func decodeBloomReportBody(d *Decoder) *BloomReport {
	r := &BloomReport{
		Node:      d.Str(),
		PatternID: d.Str(),
		Full:      d.Bool(),
	}
	raw := d.Bytes()
	if d.err != nil {
		return r
	}
	f, err := bloom.Unmarshal(raw)
	if err != nil {
		d.Fail(fmt.Sprintf("bloom filter: %v", err))
		return r
	}
	r.Filter = f
	return r
}

// UnmarshalBloomReport decodes a payload written by MarshalBloomReport.
func UnmarshalBloomReport(payload []byte) (*BloomReport, error) {
	d := NewDecoder(payload)
	r := decodeBloomReportBody(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// AppendParamsReport appends one sampled trace's parameter report to dst.
// The trace ID is carried once; each span's TraceID is restored from it on
// decode.
func AppendParamsReport(dst []byte, r *ParamsReport) []byte {
	dst = AppendString(dst, r.Node)
	dst = AppendString(dst, r.TraceID)
	dst = binary.AppendUvarint(dst, uint64(len(r.Spans)))
	for _, s := range r.Spans {
		dst = AppendString(dst, s.PatternID)
		dst = AppendString(dst, s.SpanID)
		dst = AppendString(dst, s.ParentID)
		dst = binary.AppendVarint(dst, s.StartUnix)
		dst = binary.AppendVarint(dst, int64(s.RawSize))
		dst = binary.AppendUvarint(dst, uint64(len(s.AttrParams)))
		for _, params := range s.AttrParams {
			dst = binary.AppendUvarint(dst, uint64(len(params)))
			for _, p := range params {
				dst = AppendString(dst, p)
			}
		}
	}
	return dst
}

// MarshalParamsReport encodes one sampled trace's parameter report.
func MarshalParamsReport(r *ParamsReport) []byte {
	return AppendParamsReport(nil, r)
}

// decodeParamsReportBody reads one params report body from d.
func decodeParamsReportBody(d *Decoder) *ParamsReport {
	r := &ParamsReport{
		Node:    d.Str(),
		TraceID: d.Str(),
	}
	nSpans := d.Count()
	for i := 0; i < nSpans && d.err == nil; i++ {
		s := &parser.ParsedSpan{
			PatternID: d.Str(),
			TraceID:   r.TraceID,
			SpanID:    d.Str(),
			ParentID:  d.Str(),
			StartUnix: d.Varint(),
		}
		s.RawSize = int(d.Varint())
		nAttrs := d.Count()
		for j := 0; j < nAttrs && d.err == nil; j++ {
			np := d.Count()
			params := make([]string, 0, CapHint(np))
			for k := 0; k < np && d.err == nil; k++ {
				params = append(params, d.Str())
			}
			s.AttrParams = append(s.AttrParams, params)
		}
		r.Spans = append(r.Spans, s)
	}
	return r
}

// UnmarshalParamsReport decodes a payload written by MarshalParamsReport.
func UnmarshalParamsReport(payload []byte) (*ParamsReport, error) {
	d := NewDecoder(payload)
	r := decodeParamsReportBody(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}
