package rpc

// Payload codecs for the query half of the protocol. The ingest half rides
// on the wire package's envelope codec (wire.AppendPatternOp and friends);
// these routines give the read path the same treatment: traces, query results,
// filters and batch statistics in the wire layout conventions (uvarint
// lengths, zigzag varints, fixed field order). Map-shaped results
// (BatchStats.ByService, Edges) encode in sorted key order so a response is
// a deterministic function of its value.

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/backend"
	"repro/internal/trace"
	"repro/internal/wire"
)

// appendSpan appends one reconstructed span. The trace ID is carried once at
// the trace level, not per span.
func appendSpan(dst []byte, s *trace.Span) []byte {
	dst = wire.AppendString(dst, s.SpanID)
	dst = wire.AppendString(dst, s.ParentID)
	dst = wire.AppendString(dst, s.Service)
	dst = wire.AppendString(dst, s.Node)
	dst = wire.AppendString(dst, s.Operation)
	dst = append(dst, byte(s.Kind))
	dst = binary.AppendVarint(dst, s.StartUnix)
	dst = binary.AppendVarint(dst, s.Duration)
	dst = binary.AppendUvarint(dst, uint64(s.Status))
	dst = binary.AppendUvarint(dst, uint64(len(s.Attributes)))
	for _, k := range s.AttrKeys() {
		v := s.Attributes[k]
		dst = wire.AppendString(dst, k)
		dst = wire.AppendBool(dst, v.IsNum)
		if v.IsNum {
			dst = binary.AppendUvarint(dst, math.Float64bits(v.Num))
		} else {
			dst = wire.AppendString(dst, v.Str)
		}
	}
	return dst
}

// decodeSpan reads one span, restoring its TraceID from the trace header.
func decodeSpan(d *wire.Decoder, traceID string) *trace.Span {
	s := &trace.Span{
		TraceID:   traceID,
		SpanID:    d.Str(),
		ParentID:  d.Str(),
		Service:   d.Str(),
		Node:      d.Str(),
		Operation: d.Str(),
		Kind:      trace.Kind(d.Byte()),
		StartUnix: d.Varint(),
		Duration:  d.Varint(),
		Status:    trace.Status(d.Uvarint()),
	}
	n := d.Count()
	s.Attributes = make(map[string]trace.AttrValue, wire.CapHint(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		if d.Bool() {
			s.Attributes[k] = trace.Num(math.Float64frombits(d.Uvarint()))
		} else {
			s.Attributes[k] = trace.Str(d.Str())
		}
	}
	return s
}

// appendTrace appends one reconstructed trace.
func appendTrace(dst []byte, t *trace.Trace) []byte {
	dst = wire.AppendString(dst, t.TraceID)
	dst = binary.AppendUvarint(dst, uint64(len(t.Spans)))
	for _, s := range t.Spans {
		dst = appendSpan(dst, s)
	}
	return dst
}

// decodeTrace reads one trace.
func decodeTrace(d *wire.Decoder) *trace.Trace {
	t := &trace.Trace{TraceID: d.Str()}
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		t.Spans = append(t.Spans, decodeSpan(d, t.TraceID))
	}
	return t
}

// appendQueryResult appends one query result.
func appendQueryResult(dst []byte, r backend.QueryResult) []byte {
	dst = append(dst, byte(r.Kind))
	dst = wire.AppendString(dst, r.Reason)
	dst = wire.AppendBool(dst, r.Trace != nil)
	if r.Trace != nil {
		dst = appendTrace(dst, r.Trace)
	}
	return dst
}

// decodeQueryResult reads one query result.
func decodeQueryResult(d *wire.Decoder) backend.QueryResult {
	r := backend.QueryResult{
		Kind:   backend.HitKind(d.Byte()),
		Reason: d.Str(),
	}
	if d.Bool() {
		r.Trace = decodeTrace(d)
	}
	return r
}

// appendStringSlice appends a counted string list.
func appendStringSlice(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = wire.AppendString(dst, s)
	}
	return dst
}

// decodeStringSlice reads a counted string list.
func decodeStringSlice(d *wire.Decoder) []string {
	n := d.Count()
	out := make([]string, 0, wire.CapHint(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.Str())
	}
	return out
}

// appendFilter appends a FindTraces filter.
func appendFilter(dst []byte, f backend.Filter) []byte {
	dst = wire.AppendString(dst, f.Service)
	dst = wire.AppendString(dst, f.Operation)
	dst = wire.AppendBool(dst, f.ErrorsOnly)
	dst = binary.AppendVarint(dst, f.MinDurationUS)
	dst = binary.AppendVarint(dst, f.MaxDurationUS)
	dst = wire.AppendString(dst, f.Reason)
	dst = wire.AppendBool(dst, f.SampledOnly)
	dst = appendStringSlice(dst, f.Candidates)
	dst = binary.AppendUvarint(dst, uint64(f.Limit))
	return dst
}

// decodeFilter reads a FindTraces filter.
func decodeFilter(d *wire.Decoder) backend.Filter {
	return backend.Filter{
		Service:       d.Str(),
		Operation:     d.Str(),
		ErrorsOnly:    d.Bool(),
		MinDurationUS: d.Varint(),
		MaxDurationUS: d.Varint(),
		Reason:        d.Str(),
		SampledOnly:   d.Bool(),
		Candidates:    decodeStringSlice(d),
		Limit:         int(d.Uvarint()),
	}
}

// appendFoundTraces appends a FindTraces answer list.
func appendFoundTraces(dst []byte, fts []backend.FoundTrace) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fts)))
	for _, ft := range fts {
		dst = wire.AppendString(dst, ft.TraceID)
		dst = append(dst, byte(ft.Kind))
		dst = wire.AppendString(dst, ft.Reason)
		dst = binary.AppendUvarint(dst, uint64(ft.Spans))
	}
	return dst
}

// decodeFoundTraces reads a FindTraces answer list.
func decodeFoundTraces(d *wire.Decoder) []backend.FoundTrace {
	n := d.Count()
	out := make([]backend.FoundTrace, 0, wire.CapHint(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, backend.FoundTrace{
			TraceID: d.Str(),
			Kind:    backend.HitKind(d.Byte()),
			Reason:  d.Str(),
			Spans:   int(d.Uvarint()),
		})
	}
	return out
}

// appendBatchStats appends aggregated batch statistics, maps in sorted key
// order.
func appendBatchStats(dst []byte, st *backend.BatchStats) []byte {
	dst = binary.AppendUvarint(dst, uint64(st.Traces))
	dst = binary.AppendUvarint(dst, uint64(st.Spans))
	services := make([]string, 0, len(st.ByService))
	for svc := range st.ByService {
		services = append(services, svc)
	}
	sort.Strings(services)
	dst = binary.AppendUvarint(dst, uint64(len(services)))
	for _, svc := range services {
		s := st.ByService[svc]
		dst = wire.AppendString(dst, svc)
		dst = binary.AppendUvarint(dst, uint64(s.Spans))
		dst = binary.AppendUvarint(dst, uint64(s.Errors))
		dst = binary.AppendVarint(dst, s.TotalDurUS)
		dst = binary.AppendVarint(dst, s.MaxDurUS)
		dst = binary.AppendUvarint(dst, uint64(len(s.DurationsUS)))
		for _, dur := range s.DurationsUS {
			dst = binary.AppendVarint(dst, dur)
		}
	}
	edges := make([]string, 0, len(st.Edges))
	for e := range st.Edges {
		edges = append(edges, e)
	}
	sort.Strings(edges)
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		dst = wire.AppendString(dst, e)
		dst = binary.AppendUvarint(dst, uint64(st.Edges[e]))
	}
	return dst
}

// decodeBatchStats reads aggregated batch statistics.
func decodeBatchStats(d *wire.Decoder) *backend.BatchStats {
	st := &backend.BatchStats{
		Traces:    int(d.Uvarint()),
		Spans:     int(d.Uvarint()),
		ByService: map[string]*backend.ServiceStats{},
		Edges:     map[string]int{},
	}
	nSvc := d.Count()
	for i := 0; i < nSvc && d.Err() == nil; i++ {
		svc := d.Str()
		s := &backend.ServiceStats{
			Spans:      int(d.Uvarint()),
			Errors:     int(d.Uvarint()),
			TotalDurUS: d.Varint(),
			MaxDurUS:   d.Varint(),
		}
		nDur := d.Count()
		for j := 0; j < nDur && d.Err() == nil; j++ {
			s.DurationsUS = append(s.DurationsUS, d.Varint())
		}
		st.ByService[svc] = s
	}
	nEdges := d.Count()
	for i := 0; i < nEdges && d.Err() == nil; i++ {
		e := d.Str()
		st.Edges[e] = int(d.Uvarint())
	}
	return st
}

// Stats is the operations snapshot a server reports: the backend's storage
// accounting and pattern/shard counts, served by one stats round-trip.
type Stats struct {
	// StorageBytes is the backend's total persisted bytes; the next three
	// split it by payload kind.
	StorageBytes  int64
	PatternBytes  int64
	BloomBytes    int64
	ParamBytes    int64
	SpanPatterns  int
	TopoPatterns  int
	BackendShards int
}

// BackendStats reads b's operations snapshot: what a stats request answers,
// and what a local cluster reports in its place.
func BackendStats(b *backend.Backend) Stats {
	total, patterns, blooms, params := b.StorageBytes()
	return Stats{
		StorageBytes:  total,
		PatternBytes:  patterns,
		BloomBytes:    blooms,
		ParamBytes:    params,
		SpanPatterns:  b.SpanPatternCount(),
		TopoPatterns:  b.TopoPatternCount(),
		BackendShards: b.ShardCount(),
	}
}

// appendStats appends an operations snapshot.
func appendStats(dst []byte, st Stats) []byte {
	dst = binary.AppendVarint(dst, st.StorageBytes)
	dst = binary.AppendVarint(dst, st.PatternBytes)
	dst = binary.AppendVarint(dst, st.BloomBytes)
	dst = binary.AppendVarint(dst, st.ParamBytes)
	dst = binary.AppendUvarint(dst, uint64(st.SpanPatterns))
	dst = binary.AppendUvarint(dst, uint64(st.TopoPatterns))
	dst = binary.AppendUvarint(dst, uint64(st.BackendShards))
	return dst
}

// decodeStats reads an operations snapshot.
func decodeStats(d *wire.Decoder) Stats {
	return Stats{
		StorageBytes:  d.Varint(),
		PatternBytes:  d.Varint(),
		BloomBytes:    d.Varint(),
		ParamBytes:    d.Varint(),
		SpanPatterns:  int(d.Uvarint()),
		TopoPatterns:  int(d.Uvarint()),
		BackendShards: int(d.Uvarint()),
	}
}
