// Package otlp implements a minimal OTLP/JSON-compatible ingestion surface
// so Mint can consume spans exported by OpenTelemetry SDKs (§4.1: the agent
// "supports various trace protocols ... because Mint's parsing operations
// are decoupled from raw trace data generation").
//
// The subset implemented covers the fields Mint's parsers consume:
// resource.service.name, span ids, kind, timestamps, status and string/
// numeric attributes. Everything else is ignored, matching the paper's
// decoupling claim.
//
// The sibling package otlp/pb decodes the same request shape from the OTLP
// binary protobuf encoding. Both decoders map OTLP fields to Mint spans
// through the shared helpers in this package (KindFrom, StatusFrom,
// TimesFromNanos), so a payload ingested as JSON and its re-encoding as
// protobuf produce byte-identical spans.
package otlp

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/trace"
)

// Export mirrors the OTLP ExportTraceServiceRequest JSON shape (subset).
type Export struct {
	ResourceSpans []ResourceSpans `json:"resourceSpans"`
}

// ResourceSpans groups spans by originating resource (service instance).
type ResourceSpans struct {
	Resource   Resource     `json:"resource"`
	ScopeSpans []ScopeSpans `json:"scopeSpans"`
}

// Resource carries service identity attributes.
type Resource struct {
	Attributes []KeyValue `json:"attributes"`
}

// ScopeSpans is one instrumentation scope's span batch.
type ScopeSpans struct {
	Spans []Span `json:"spans"`
}

// Span is the OTLP span subset Mint consumes.
type Span struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano Nanos      `json:"startTimeUnixNano"`
	EndTimeUnixNano   Nanos      `json:"endTimeUnixNano"`
	Attributes        []KeyValue `json:"attributes"`
	Status            Status     `json:"status"`
}

// Status is the OTLP span status.
type Status struct {
	Code int `json:"code"` // 0 unset, 1 ok, 2 error
}

// KeyValue is an OTLP attribute.
type KeyValue struct {
	Key   string   `json:"key"`
	Value AnyValue `json:"value"`
}

// AnyValue is the OTLP value union (string/int/double subset).
type AnyValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"` // OTLP encodes int64 as string
	DoubleValue *float64 `json:"doubleValue,omitempty"`
}

// Nanos is an OTLP nanosecond timestamp in its JSON form. The OTLP/JSON
// mapping renders uint64 timestamps as strings ("1719526800000000000"), but
// hand-written exporters and several non-Go SDK serializers emit bare JSON
// numbers — both appear in the wild, so Nanos unmarshals from either and
// always marshals back to the spec's string form.
type Nanos string

// UnmarshalJSON accepts both the string and the number encoding.
func (n *Nanos) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*n = Nanos(s)
		return nil
	}
	if string(b) == "null" {
		*n = ""
		return nil
	}
	// A bare number: keep its literal text; parseNanos handles both integer
	// and scientific forms.
	*n = Nanos(b)
	return nil
}

// MarshalJSON renders the spec's string encoding.
func (n Nanos) MarshalJSON() ([]byte, error) { return json.Marshal(string(n)) }

// KindFrom maps an OTLP SpanKind enum value to the internal kind. Unknown
// and unspecified values collapse to KindInternal, as the OTLP spec directs
// receivers to treat them.
func KindFrom(k int) trace.Kind {
	switch k {
	case 2:
		return trace.KindServer
	case 3:
		return trace.KindClient
	case 4:
		return trace.KindProducer
	case 5:
		return trace.KindConsumer
	default:
		return trace.KindInternal
	}
}

// KindTo maps an internal kind back to the OTLP SpanKind enum value.
func KindTo(k trace.Kind) int {
	switch k {
	case trace.KindServer:
		return 2
	case trace.KindClient:
		return 3
	case trace.KindProducer:
		return 4
	case trace.KindConsumer:
		return 5
	default:
		return 0
	}
}

// StatusFrom maps an OTLP status code (0 unset, 1 ok, 2 error) to the
// internal status.
func StatusFrom(code int) trace.Status {
	if code == 2 {
		return trace.StatusError
	}
	return trace.StatusOK
}

// ErrEndBeforeStart reports a span whose end timestamp precedes its start.
var ErrEndBeforeStart = fmt.Errorf("end before start")

// errNegativeTime reports a span timestamp below zero. OTLP timestamps are
// unsigned, so one that reads negative here was negative on the wire or
// overflowed int64.
var errNegativeTime = fmt.Errorf("negative timestamp")

// TimesFromNanos converts OTLP start/end nanosecond timestamps into Mint's
// microsecond start + duration. Both front-door decoders (JSON and
// protobuf) share this conversion, which is what keeps their span mappings
// byte-identical. The checks run before the subtraction, so it cannot
// overflow.
func TimesFromNanos(startNs, endNs int64) (startUS, durationUS int64, err error) {
	if startNs < 0 || endNs < 0 {
		return 0, 0, errNegativeTime
	}
	if endNs < startNs {
		return 0, 0, ErrEndBeforeStart
	}
	return startNs / 1000, (endNs - startNs) / 1000, nil
}

// Decode parses an OTLP/JSON export payload into Mint's span model. node
// names the application node the payload came from (OTLP carries no host
// placement; the receiving agent knows its own node).
func Decode(payload []byte, node string) ([]*trace.Span, error) {
	var ex Export
	if err := json.Unmarshal(payload, &ex); err != nil {
		return nil, fmt.Errorf("otlp: decode: %w", err)
	}
	return Convert(&ex, node)
}

// Convert maps a decoded export to internal spans.
func Convert(ex *Export, node string) ([]*trace.Span, error) {
	var out []*trace.Span
	for _, rs := range ex.ResourceSpans {
		service := ""
		for _, kv := range rs.Resource.Attributes {
			if kv.Key == "service.name" && kv.Value.StringValue != nil {
				service = *kv.Value.StringValue
			}
		}
		if service == "" {
			return nil, fmt.Errorf("otlp: resource missing service.name")
		}
		for _, ss := range rs.ScopeSpans {
			for _, s := range ss.Spans {
				sp, err := convertSpan(&s, service, node)
				if err != nil {
					return nil, err
				}
				out = append(out, sp)
			}
		}
	}
	return out, nil
}

func convertSpan(s *Span, service, node string) (*trace.Span, error) {
	if s.TraceID == "" || s.SpanID == "" {
		return nil, fmt.Errorf("otlp: span missing trace or span id")
	}
	start, err := parseNanos(string(s.StartTimeUnixNano))
	if err != nil {
		return nil, fmt.Errorf("otlp: span %s: bad start time: %w", s.SpanID, err)
	}
	end, err := parseNanos(string(s.EndTimeUnixNano))
	if err != nil {
		return nil, fmt.Errorf("otlp: span %s: bad end time: %w", s.SpanID, err)
	}
	startUS, durUS, err := TimesFromNanos(start, end)
	if err != nil {
		return nil, fmt.Errorf("otlp: span %s: %w", s.SpanID, err)
	}
	sp := &trace.Span{
		TraceID:    s.TraceID,
		SpanID:     s.SpanID,
		ParentID:   s.ParentSpanID,
		Service:    service,
		Node:       node,
		Operation:  s.Name,
		Kind:       KindFrom(s.Kind),
		StartUnix:  startUS,
		Duration:   durUS,
		Status:     StatusFrom(s.Status.Code),
		Attributes: map[string]trace.AttrValue{},
	}
	for _, kv := range s.Attributes {
		switch {
		case kv.Value.StringValue != nil:
			sp.Attributes[kv.Key] = trace.Str(*kv.Value.StringValue)
		case kv.Value.IntValue != nil:
			n, err := strconv.ParseInt(*kv.Value.IntValue, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("otlp: span %s: attribute %s: %w", s.SpanID, kv.Key, err)
			}
			sp.Attributes[kv.Key] = trace.Num(float64(n))
		case kv.Value.DoubleValue != nil:
			sp.Attributes[kv.Key] = trace.Num(*kv.Value.DoubleValue)
		}
	}
	return sp, nil
}

// parseNanos parses a timestamp captured by Nanos: a decimal integer (the
// spec's string form and the common number form) or, from serializers that
// render large numbers in scientific notation, a float — accepted with the
// precision float64 carries.
func parseNanos(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty timestamp")
	}
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timestamp %q", s)
	}
	if math.IsNaN(f) || f < math.MinInt64 || f >= math.MaxInt64 {
		return 0, fmt.Errorf("timestamp %q out of range", s)
	}
	return int64(f), nil
}

// Build groups internal spans by service into the OTLP export shape shared
// by both wire encodings (Encode renders it as JSON, pb.AppendExport as
// protobuf).
func Build(spans []*trace.Span) *Export {
	byService := map[string][]*trace.Span{}
	var order []string
	for _, s := range spans {
		if _, ok := byService[s.Service]; !ok {
			order = append(order, s.Service)
		}
		byService[s.Service] = append(byService[s.Service], s)
	}
	var ex Export
	for _, svc := range order {
		name := svc
		rs := ResourceSpans{
			Resource: Resource{Attributes: []KeyValue{{
				Key: "service.name", Value: AnyValue{StringValue: &name},
			}}},
			ScopeSpans: []ScopeSpans{{}},
		}
		for _, s := range byService[svc] {
			rs.ScopeSpans[0].Spans = append(rs.ScopeSpans[0].Spans, encodeSpan(s))
		}
		ex.ResourceSpans = append(ex.ResourceSpans, rs)
	}
	return &ex
}

// Encode renders internal spans as an OTLP/JSON export, grouping spans by
// service. Round-tripping through Encode/Decode preserves every field Mint
// parses.
func Encode(spans []*trace.Span) ([]byte, error) {
	return json.Marshal(Build(spans))
}

func encodeSpan(s *trace.Span) Span {
	statusCode := 1
	if s.Status >= 400 {
		statusCode = 2
	}
	out := Span{
		TraceID:           s.TraceID,
		SpanID:            s.SpanID,
		ParentSpanID:      s.ParentID,
		Name:              s.Operation,
		Kind:              KindTo(s.Kind),
		StartTimeUnixNano: Nanos(strconv.FormatInt(s.StartUnix*1000, 10)),
		EndTimeUnixNano:   Nanos(strconv.FormatInt((s.StartUnix+s.Duration)*1000, 10)),
		Status:            Status{Code: statusCode},
	}
	for _, k := range s.AttrKeys() {
		v := s.Attributes[k]
		if v.IsNum {
			d := v.Num
			out.Attributes = append(out.Attributes, KeyValue{Key: k, Value: AnyValue{DoubleValue: &d}})
		} else {
			str := v.Str
			out.Attributes = append(out.Attributes, KeyValue{Key: k, Value: AnyValue{StringValue: &str}})
		}
	}
	return out
}
