package otlp

import "testing"

// FuzzOTLPJSONDecode drives arbitrary bytes through the OTLP/JSON decoder.
// Its contract under fuzzing: never panic, and when it accepts a payload,
// return structurally complete spans (IDs and service present, start and
// duration non-negative). Seeds are a valid export and a payload whose
// timestamps would overflow the duration subtraction.
func FuzzOTLPJSONDecode(f *testing.F) {
	valid, err := Encode(sampleSpans())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(timedPayload("9000000000000000000", "-9000000000000000000")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		spans, err := Decode(payload, "fuzz")
		if err != nil {
			return
		}
		for _, s := range spans {
			if s.TraceID == "" || s.SpanID == "" {
				t.Fatalf("accepted span without IDs: %+v", s)
			}
			if s.Service == "" {
				t.Fatalf("accepted span without service: %+v", s)
			}
			if s.StartUnix < 0 || s.Duration < 0 {
				t.Fatalf("accepted negative start or duration: %+v", s)
			}
		}
	})
}
