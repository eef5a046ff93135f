package otlp

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func sampleSpans() []*trace.Span {
	return []*trace.Span{
		{
			TraceID: "abc123", SpanID: "s1", Service: "web", Node: "n1",
			Operation: "GET /", Kind: trace.KindServer, StartUnix: 1000, Duration: 500,
			Status: trace.StatusOK,
			Attributes: map[string]trace.AttrValue{
				"http.url": trace.Str("/home"),
				"payload":  trace.Num(128),
			},
		},
		{
			TraceID: "abc123", SpanID: "s2", ParentID: "s1", Service: "db", Node: "n1",
			Operation: "Query", Kind: trace.KindClient, StartUnix: 1100, Duration: 200,
			Status:     trace.StatusError,
			Attributes: map[string]trace.AttrValue{"sql": trace.Str("SELECT 1")},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload, err := Encode(sampleSpans())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(payload, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("spans = %d", len(got))
	}
	byID := map[string]*trace.Span{}
	for _, s := range got {
		byID[s.SpanID] = s
	}
	s1 := byID["s1"]
	if s1.Service != "web" || s1.Operation != "GET /" || s1.Kind != trace.KindServer {
		t.Fatalf("s1 = %+v", s1)
	}
	if s1.StartUnix != 1000 || s1.Duration != 500 {
		t.Fatalf("s1 timing = %d/%d", s1.StartUnix, s1.Duration)
	}
	if !s1.Attributes["http.url"].Equal(trace.Str("/home")) {
		t.Fatal("string attribute lost")
	}
	if !s1.Attributes["payload"].Equal(trace.Num(128)) {
		t.Fatal("numeric attribute lost")
	}
	s2 := byID["s2"]
	if s2.Status != trace.StatusError || s2.ParentID != "s1" || s2.Kind != trace.KindClient {
		t.Fatalf("s2 = %+v", s2)
	}
	if s2.Node != "n1" {
		t.Fatal("node is assigned by the receiving agent")
	}
}

func TestDecodeRealisticOTLPJSON(t *testing.T) {
	payload := `{
	  "resourceSpans": [{
	    "resource": {"attributes": [{"key": "service.name", "value": {"stringValue": "cart"}}]},
	    "scopeSpans": [{
	      "spans": [{
	        "traceId": "5b8aa5a2d2c872e8321cf37308d69df2",
	        "spanId": "051581bf3cb55c13",
	        "name": "GetCart",
	        "kind": 2,
	        "startTimeUnixNano": "1544712660000000000",
	        "endTimeUnixNano": "1544712661000000000",
	        "attributes": [
	          {"key": "cache.key", "value": {"stringValue": "cache:cart:7"}},
	          {"key": "items", "value": {"intValue": "3"}}
	        ],
	        "status": {"code": 1}
	      }]
	    }]
	  }]
	}`
	spans, err := Decode([]byte(payload), "host-7")
	if err != nil {
		t.Fatal(err)
	}
	s := spans[0]
	if s.Service != "cart" || s.Operation != "GetCart" || s.Node != "host-7" {
		t.Fatalf("span = %+v", s)
	}
	if s.Duration != 1_000_000 { // 1s in µs
		t.Fatalf("duration = %d", s.Duration)
	}
	if !s.Attributes["items"].Equal(trace.Num(3)) {
		t.Fatal("intValue attribute must decode numerically")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":          `{"resourceSpans": [}`,
		"no service name":   `{"resourceSpans":[{"resource":{"attributes":[]},"scopeSpans":[{"spans":[{"traceId":"t","spanId":"s","startTimeUnixNano":"1","endTimeUnixNano":"2"}]}]}]}`,
		"missing span id":   `{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"x"}}]},"scopeSpans":[{"spans":[{"traceId":"t","startTimeUnixNano":"1","endTimeUnixNano":"2"}]}]}]}`,
		"end before start":  `{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"x"}}]},"scopeSpans":[{"spans":[{"traceId":"t","spanId":"s","startTimeUnixNano":"5000","endTimeUnixNano":"2000"}]}]}]}`,
		"bad timestamp":     `{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"x"}}]},"scopeSpans":[{"spans":[{"traceId":"t","spanId":"s","startTimeUnixNano":"NaN","endTimeUnixNano":"2000"}]}]}]}`,
		"bad int attribute": `{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"x"}}]},"scopeSpans":[{"spans":[{"traceId":"t","spanId":"s","startTimeUnixNano":"1","endTimeUnixNano":"2","attributes":[{"key":"n","value":{"intValue":"xx"}}]}]}]}]}`,
	}
	for name, payload := range cases {
		if _, err := Decode([]byte(payload), "n"); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestDecodeRejectsTimestampOverflow pins that timestamps are checked before
// the duration is computed: OTLP timestamps are unsigned, so a negative one
// is refused rather than subtracted into a wrapped, plausible-looking
// duration.
func TestDecodeRejectsTimestampOverflow(t *testing.T) {
	for _, ts := range [][2]string{
		{"9000000000000000000", "-9000000000000000000"},
		{"-9000000000000000000", "9000000000000000000"},
		{"-5", "2000"},
	} {
		payload := timedPayload(ts[0], ts[1])
		spans, err := Decode([]byte(payload), "n")
		if err == nil {
			t.Fatalf("start %s end %s: accepted with duration %d us", ts[0], ts[1], spans[0].Duration)
		}
		if !strings.Contains(err.Error(), "negative timestamp") {
			t.Fatalf("start %s end %s: err = %v, want a negative-timestamp error", ts[0], ts[1], err)
		}
	}
}

// timedPayload is a one-span OTLP/JSON export with the given timestamps.
func timedPayload(start, end string) string {
	return `{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"x"}}]},` +
		`"scopeSpans":[{"spans":[{"traceId":"t","spanId":"s","startTimeUnixNano":"` + start +
		`","endTimeUnixNano":"` + end + `"}]}]}]}`
}

func TestKindMapping(t *testing.T) {
	kinds := map[int]trace.Kind{
		0: trace.KindInternal, 1: trace.KindInternal, 2: trace.KindServer,
		3: trace.KindClient, 4: trace.KindProducer, 5: trace.KindConsumer,
	}
	for otlpKind, want := range kinds {
		if got := KindFrom(otlpKind); got != want {
			t.Errorf("kind %d -> %v, want %v", otlpKind, got, want)
		}
	}
}

// TestParseNanosFlexible pins the timestamp forms the front door accepts:
// the OTLP/JSON spec's string encoding, bare JSON numbers (common from
// hand-written exporters and non-Go serializers), and scientific notation
// from float-based serializers — both appear in the wild.
func TestParseNanosFlexible(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    int64
		wantErr bool
	}{
		{name: "string integer", in: "1719526800000000000", want: 1719526800000000000},
		{name: "zero", in: "0", want: 0},
		{name: "negative integer", in: "-5", want: -5},
		{name: "scientific notation", in: "1.7195268e+18", want: 1719526800000000000},
		{name: "float with fraction", in: "1500.75", want: 1500},
		{name: "empty", in: "", wantErr: true},
		{name: "garbage", in: "yesterday", wantErr: true},
		{name: "NaN", in: "NaN", wantErr: true},
		{name: "positive overflow", in: "1e300", wantErr: true},
		{name: "negative overflow", in: "-1e300", wantErr: true},
	}
	for _, tc := range cases {
		got, err := parseNanos(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: expected error, got %d", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestDecodeNumericTimestamps pins that a full payload whose timestamps are
// JSON numbers (not the spec's strings) decodes identically to the string
// form, including when one of the two stamps is scientific-notation.
func TestDecodeNumericTimestamps(t *testing.T) {
	payload := `{
	  "resourceSpans": [{
	    "resource": {"attributes": [{"key": "service.name", "value": {"stringValue": "cart"}}]},
	    "scopeSpans": [{
	      "spans": [{
	        "traceId": "5b8aa5a2d2c872e8321cf37308d69df2",
	        "spanId": "051581bf3cb55c13",
	        "name": "GetCart",
	        "kind": 2,
	        "startTimeUnixNano": 1544712660000000000,
	        "endTimeUnixNano": 1.544712661e+18,
	        "status": {"code": 1}
	      }]
	    }]
	  }]
	}`
	spans, err := Decode([]byte(payload), "host-7")
	if err != nil {
		t.Fatal(err)
	}
	s := spans[0]
	if s.StartUnix != 1544712660000000 {
		t.Fatalf("start = %d", s.StartUnix)
	}
	if s.Duration != 1_000_000 {
		t.Fatalf("duration = %d", s.Duration)
	}
}

func TestEncodeGroupsByService(t *testing.T) {
	payload, err := Encode(sampleSpans())
	if err != nil {
		t.Fatal(err)
	}
	s := string(payload)
	if strings.Count(s, "service.name") != 2 {
		t.Fatalf("expected two resource groups:\n%s", s)
	}
}
