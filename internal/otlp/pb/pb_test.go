package pb

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/intern"
	"repro/internal/otlp"
	"repro/internal/trace"
)

func sampleSpans() []*trace.Span {
	return []*trace.Span{
		{
			TraceID: "5b8efff798038103d269b633813fc60c", SpanID: "eee19b7ec3c1b174",
			Service: "frontend", Node: "n1", Operation: "GET /checkout",
			Kind: trace.KindServer, StartUnix: 1719526800000000, Duration: 42000,
			Status: trace.StatusOK,
			Attributes: map[string]trace.AttrValue{
				"http.method":      trace.Str("GET"),
				"http.url":         trace.Str("/checkout?session=a91f"),
				"http.status_code": trace.Num(200),
				"cache.hit_ratio":  trace.Num(0.85),
			},
		},
		{
			TraceID: "5b8efff798038103d269b633813fc60c", SpanID: "00f067aa0ba902b7",
			ParentID: "eee19b7ec3c1b174", Service: "cart", Node: "n1",
			Operation: "GetCart", Kind: trace.KindClient,
			StartUnix: 1719526800004000, Duration: 27000,
			Status:     trace.StatusError,
			Attributes: map[string]trace.AttrValue{"cart.items": trace.Num(3)},
		},
		{
			TraceID: "a0d5c2c62e9a3db1c0f0f6f21e62d921", SpanID: "b7ad6b7169203331",
			Service: "frontend", Node: "n1", Operation: "publish",
			Kind: trace.KindProducer, StartUnix: 1719526801000000, Duration: 100,
			Status:     trace.StatusOK,
			Attributes: map[string]trace.AttrValue{},
		},
	}
}

// render canonicalizes spans for byte-level comparison.
func render(spans []*trace.Span) string {
	var b strings.Builder
	for _, s := range spans {
		b.WriteString(s.Serialize())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDecodeMatchesJSON is the core parity property: the same export
// ingested through the protobuf walker and through the JSON decoder must
// produce byte-identical spans.
func TestDecodeMatchesJSON(t *testing.T) {
	spans := sampleSpans()
	ex := otlp.Build(spans)

	jsonPayload, err := otlp.Encode(spans)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := otlp.Decode(jsonPayload, "host-1")
	if err != nil {
		t.Fatal(err)
	}

	pbPayload, err := AppendExport(nil, ex)
	if err != nil {
		t.Fatal(err)
	}
	fromPB, err := Decode(pbPayload, "host-1")
	if err != nil {
		t.Fatal(err)
	}

	if got, want := render(fromPB), render(fromJSON); got != want {
		t.Fatalf("protobuf decode diverged from JSON decode:\npb:\n%s\njson:\n%s", got, want)
	}
}

// TestDecoderScratchReuse pins the pooled-decoder contract: one Decoder
// (with an intern dictionary) decoding different payloads back to back must
// answer each correctly, and interned strings must be shared across calls.
func TestDecoderScratchReuse(t *testing.T) {
	spans := sampleSpans()
	a, err := MarshalSpans(spans[:2])
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalSpans(spans[2:])
	if err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(intern.NewDict())
	decA1, err := d.Decode(a, "n1")
	if err != nil {
		t.Fatal(err)
	}
	wantA := render(decA1)

	decB, err := d.Decode(b, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(decB) != 1 || decB[0].Operation != "publish" {
		t.Fatalf("second decode wrong: %s", render(decB))
	}

	decA2, err := d.Decode(a, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(decA2); got != wantA {
		t.Fatalf("decoder reuse diverged:\nfirst:\n%s\nthird:\n%s", wantA, got)
	}
}

// TestDecodeSkipsUnknownFields decorates a valid payload with every
// skippable wire shape OTLP actually carries — scope blocks, trace_state,
// dropped counts, span flags (fixed32), schema URLs, events/links, plus
// huge unknown field numbers — and requires an identical decode.
func TestDecodeSkipsUnknownFields(t *testing.T) {
	spans := sampleSpans()[:1]
	plain, err := MarshalSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(plain, "n1")
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the same export by hand with decoration at every level.
	ex := otlp.Build(spans)
	rs := &ex.ResourceSpans[0]

	var res []byte
	for i := range rs.Resource.Attributes {
		kv, err := appendKeyValue(nil, &rs.Resource.Attributes[i])
		if err != nil {
			t.Fatal(err)
		}
		res = AppendBytesField(res, fResourceAttributes, kv)
	}
	// Resource.dropped_attributes_count (field 2, varint).
	res = AppendTag(res, 2, wtVarint)
	res = AppendVarint(res, 7)

	spanBody, err := appendSpan(nil, &rs.ScopeSpans[0].Spans[0])
	if err != nil {
		t.Fatal(err)
	}
	// Span.trace_state (field 3, string), Span.dropped_events_count
	// (field 12, varint), Span.flags (field 16, fixed32), an event
	// (field 11, message) and an absurd unknown field number.
	spanBody = AppendStringField(spanBody, 3, "congo=t61rcWkgMzE")
	spanBody = AppendTag(spanBody, 12, wtVarint)
	spanBody = AppendVarint(spanBody, 2)
	spanBody = AppendTag(spanBody, 16, wtFixed32)
	spanBody = append(spanBody, 0x01, 0x00, 0x00, 0x00)
	spanBody = AppendBytesField(spanBody, 11, AppendStringField(nil, 2, "exception"))
	spanBody = AppendStringField(spanBody, 12345, "future field")

	// ScopeSpans with a populated scope (field 1) and schema_url (field 3).
	scope := AppendStringField(nil, 1, "go.opentelemetry.io/contrib/otelhttp")
	scope = AppendStringField(scope, 2, "0.49.0")
	ss := AppendBytesField(nil, 1, scope)
	ss = AppendBytesField(ss, fSSSpans, spanBody)
	ss = AppendStringField(ss, 3, "https://opentelemetry.io/schemas/1.24.0")

	rsBody := AppendBytesField(nil, fRSResource, res)
	rsBody = AppendBytesField(rsBody, fRSScopeSpans, ss)
	rsBody = AppendStringField(rsBody, 3, "https://opentelemetry.io/schemas/1.24.0")

	payload := AppendBytesField(nil, fExportResourceSpans, rsBody)

	got, err := Decode(payload, "n1")
	if err != nil {
		t.Fatalf("decorated payload failed to decode: %v", err)
	}
	if render(got) != render(want) {
		t.Fatalf("unknown fields changed the decode:\ngot:\n%s\nwant:\n%s", render(got), render(want))
	}
}

// TestDecodeIgnoredValueKinds pins that bool/bytes/array/kvlist attribute
// values leave the attribute unset, exactly like the JSON subset.
func TestDecodeIgnoredValueKinds(t *testing.T) {
	spans := sampleSpans()[:1]
	ex := otlp.Build(spans)
	spanBody, err := appendSpan(nil, &ex.ResourceSpans[0].ScopeSpans[0].Spans[0])
	if err != nil {
		t.Fatal(err)
	}
	// KeyValue{key: "flag", value: AnyValue{bool_value: true}}
	boolVal := AppendTag(nil, fAnyBool, wtVarint)
	boolVal = AppendVarint(boolVal, 1)
	kv := AppendStringField(nil, fKVKey, "flag")
	kv = AppendBytesField(kv, fKVValue, boolVal)
	spanBody = AppendBytesField(spanBody, fSpanAttributes, kv)
	// KeyValue{key: "blob", value: AnyValue{bytes_value: ...}}
	kv = AppendStringField(nil, fKVKey, "blob")
	kv = AppendBytesField(kv, fKVValue, AppendBytesField(nil, fAnyBytes, []byte{1, 2, 3}))
	spanBody = AppendBytesField(spanBody, fSpanAttributes, kv)

	ss := AppendBytesField(nil, fSSSpans, spanBody)
	var res []byte
	for i := range ex.ResourceSpans[0].Resource.Attributes {
		b, err := appendKeyValue(nil, &ex.ResourceSpans[0].Resource.Attributes[i])
		if err != nil {
			t.Fatal(err)
		}
		res = AppendBytesField(res, fResourceAttributes, b)
	}
	rsBody := AppendBytesField(nil, fRSResource, res)
	rsBody = AppendBytesField(rsBody, fRSScopeSpans, ss)
	payload := AppendBytesField(nil, fExportResourceSpans, rsBody)

	got, err := Decode(payload, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[0].Attributes["flag"]; ok {
		t.Fatal("bool attribute must be ignored")
	}
	if _, ok := got[0].Attributes["blob"]; ok {
		t.Fatal("bytes attribute must be ignored")
	}
	if len(got[0].Attributes) != len(spans[0].Attributes) {
		t.Fatalf("attributes = %v", got[0].Attributes)
	}
}

// validPayload builds one well-formed single-span payload for the error
// tests to mutate.
func validPayload(t *testing.T) []byte {
	t.Helper()
	p, err := MarshalSpans(sampleSpans()[:1])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDecodeEdgeCases(t *testing.T) {
	t.Run("empty payload is zero spans", func(t *testing.T) {
		spans, err := Decode(nil, "n")
		if err != nil || len(spans) != 0 {
			t.Fatalf("spans=%d err=%v", len(spans), err)
		}
	})

	t.Run("empty resource block missing service", func(t *testing.T) {
		// ResourceSpans{resource: {}} with no attributes at all.
		payload := AppendBytesField(nil, fExportResourceSpans, AppendBytesField(nil, fRSResource, nil))
		_, err := Decode(payload, "n")
		if !errors.Is(err, ErrMissingService) {
			t.Fatalf("err = %v, want ErrMissingService", err)
		}
	})

	t.Run("service with empty scope block", func(t *testing.T) {
		res := AppendBytesField(nil, fResourceAttributes, mustKV(t, "service.name", "web"))
		rsBody := AppendBytesField(nil, fRSResource, res)
		rsBody = AppendBytesField(rsBody, fRSScopeSpans, nil) // ScopeSpans{}
		payload := AppendBytesField(nil, fExportResourceSpans, rsBody)
		spans, err := Decode(payload, "n")
		if err != nil || len(spans) != 0 {
			t.Fatalf("spans=%d err=%v", len(spans), err)
		}
	})

	t.Run("truncated varint", func(t *testing.T) {
		// A tag whose continuation bit promises more bytes than exist.
		_, err := Decode([]byte{0x80}, "n")
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})

	t.Run("varint overflow", func(t *testing.T) {
		b := []byte{0x08} // field 1, varint — but inside a span context it's trace_id... use top-level skip path
		for i := 0; i < 10; i++ {
			b = append(b, 0xff)
		}
		b = append(b, 0x01)
		_, err := Decode(b, "n")
		if !errors.Is(err, ErrVarintOverflow) {
			t.Fatalf("err = %v, want ErrVarintOverflow", err)
		}
	})

	t.Run("truncated payload", func(t *testing.T) {
		p := validPayload(t)
		for _, cut := range []int{1, len(p) / 4, len(p) / 2, len(p) - 1} {
			if _, err := Decode(p[:cut], "n"); err == nil {
				t.Fatalf("cut at %d: expected error", cut)
			}
		}
	})

	t.Run("nested length overrun", func(t *testing.T) {
		// Outer field declares a ResourceSpans of 5 bytes; inside it, a
		// resource field claims 100 bytes.
		inner := AppendTag(nil, fRSResource, wtLen)
		inner = AppendVarint(inner, 100)
		inner = append(inner, 0, 0, 0)
		payload := AppendBytesField(nil, fExportResourceSpans, inner)
		_, err := Decode(payload, "n")
		if !errors.Is(err, ErrLengthOverrun) {
			t.Fatalf("err = %v, want ErrLengthOverrun", err)
		}
	})

	t.Run("top level length overrun", func(t *testing.T) {
		p := AppendTag(nil, fExportResourceSpans, wtLen)
		p = AppendVarint(p, 1<<40)
		_, err := Decode(p, "n")
		if !errors.Is(err, ErrLengthOverrun) {
			t.Fatalf("err = %v, want ErrLengthOverrun", err)
		}
	})

	t.Run("group wire type rejected", func(t *testing.T) {
		p := AppendTag(nil, 2, 3) // SGROUP
		_, err := Decode(p, "n")
		if !errors.Is(err, ErrWireType) {
			t.Fatalf("err = %v, want ErrWireType", err)
		}
	})

	t.Run("missing span id", func(t *testing.T) {
		// A span with a trace_id but no span_id.
		spanBody := AppendBytesField(nil, fSpanTraceID, []byte{1, 2, 3, 4})
		spanBody = AppendTag(spanBody, fSpanStartTime, wtFixed64)
		spanBody = AppendFixed64(spanBody, 1000)
		spanBody = AppendTag(spanBody, fSpanEndTime, wtFixed64)
		spanBody = AppendFixed64(spanBody, 2000)
		payload := wrapSpan(t, spanBody)
		_, err := Decode(payload, "n")
		if !errors.Is(err, ErrMissingID) {
			t.Fatalf("err = %v, want ErrMissingID", err)
		}
	})

	t.Run("end before start", func(t *testing.T) {
		spanBody := AppendBytesField(nil, fSpanTraceID, []byte{1, 2})
		spanBody = AppendBytesField(spanBody, fSpanSpanID, []byte{3, 4})
		spanBody = AppendTag(spanBody, fSpanStartTime, wtFixed64)
		spanBody = AppendFixed64(spanBody, 5000)
		spanBody = AppendTag(spanBody, fSpanEndTime, wtFixed64)
		spanBody = AppendFixed64(spanBody, 2000)
		payload := wrapSpan(t, spanBody)
		_, err := Decode(payload, "n")
		if !errors.Is(err, otlp.ErrEndBeforeStart) {
			t.Fatalf("err = %v, want ErrEndBeforeStart", err)
		}
	})

	t.Run("timestamp overflow", func(t *testing.T) {
		// A fixed64 end of 2^63 reads as a negative int64; subtracting the
		// start from it wraps to a huge positive duration.
		spanBody := AppendBytesField(nil, fSpanTraceID, []byte{1, 2})
		spanBody = AppendBytesField(spanBody, fSpanSpanID, []byte{3, 4})
		spanBody = AppendTag(spanBody, fSpanStartTime, wtFixed64)
		spanBody = AppendFixed64(spanBody, 5000)
		spanBody = AppendTag(spanBody, fSpanEndTime, wtFixed64)
		spanBody = AppendFixed64(spanBody, 1<<63)
		payload := wrapSpan(t, spanBody)
		spans, err := Decode(payload, "n")
		if err == nil {
			t.Fatalf("accepted with duration %d us", spans[0].Duration)
		}
		if !strings.Contains(err.Error(), "negative timestamp") {
			t.Fatalf("err = %v, want a negative-timestamp error", err)
		}
	})

	t.Run("varint timestamps accepted", func(t *testing.T) {
		spanBody := AppendBytesField(nil, fSpanTraceID, []byte{1, 2})
		spanBody = AppendBytesField(spanBody, fSpanSpanID, []byte{3, 4})
		spanBody = AppendTag(spanBody, fSpanStartTime, wtVarint)
		spanBody = AppendVarint(spanBody, 5_000_000)
		spanBody = AppendTag(spanBody, fSpanEndTime, wtVarint)
		spanBody = AppendVarint(spanBody, 9_000_000)
		payload := wrapSpan(t, spanBody)
		spans, err := Decode(payload, "n")
		if err != nil {
			t.Fatal(err)
		}
		if spans[0].StartUnix != 5000 || spans[0].Duration != 4000 {
			t.Fatalf("timing = %d/%d", spans[0].StartUnix, spans[0].Duration)
		}
	})

	t.Run("ids hex encode", func(t *testing.T) {
		spanBody := AppendBytesField(nil, fSpanTraceID,
			[]byte{0x5b, 0x8e, 0xff, 0xf7, 0x98, 0x03, 0x81, 0x03, 0xd2, 0x69, 0xb6, 0x33, 0x81, 0x3f, 0xc6, 0x0c})
		spanBody = AppendBytesField(spanBody, fSpanSpanID,
			[]byte{0xee, 0xe1, 0x9b, 0x7e, 0xc3, 0xc1, 0xb1, 0x74})
		spanBody = AppendTag(spanBody, fSpanStartTime, wtFixed64)
		spanBody = AppendFixed64(spanBody, 0)
		spanBody = AppendTag(spanBody, fSpanEndTime, wtFixed64)
		spanBody = AppendFixed64(spanBody, 0)
		payload := wrapSpan(t, spanBody)
		spans, err := Decode(payload, "n")
		if err != nil {
			t.Fatal(err)
		}
		if spans[0].TraceID != "5b8efff798038103d269b633813fc60c" {
			t.Fatalf("trace id = %q", spans[0].TraceID)
		}
		if spans[0].SpanID != "eee19b7ec3c1b174" {
			t.Fatalf("span id = %q", spans[0].SpanID)
		}
		if spans[0].ParentID != "" {
			t.Fatalf("parent id = %q", spans[0].ParentID)
		}
	})
}

// mustKV encodes KeyValue{key, stringValue: val}.
func mustKV(t *testing.T, key, val string) []byte {
	t.Helper()
	v := val
	b, err := appendKeyValue(nil, &otlp.KeyValue{Key: key, Value: otlp.AnyValue{StringValue: &v}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wrapSpan wraps an encoded Span body in scope/resource/export framing with
// a valid service.name.
func wrapSpan(t *testing.T, spanBody []byte) []byte {
	t.Helper()
	res := AppendBytesField(nil, fResourceAttributes, mustKV(t, "service.name", "web"))
	rsBody := AppendBytesField(nil, fRSResource, res)
	rsBody = AppendBytesField(rsBody, fRSScopeSpans, AppendBytesField(nil, fSSSpans, spanBody))
	return AppendBytesField(nil, fExportResourceSpans, rsBody)
}

// TestVarintRoundTrip exercises the varint coder across the interesting
// boundaries.
func TestVarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		b := AppendVarint(nil, v)
		got, n, err := uvarint(b, 0)
		if err != nil || n != len(b) || got != v {
			t.Fatalf("varint %d: got %d n=%d err=%v", v, got, n, err)
		}
	}
}
