package wire

import (
	"fmt"
	"testing"

	"repro/internal/bloom"
	"repro/internal/parser"
	"repro/internal/topo"
)

func TestMessageSizesPositive(t *testing.T) {
	f := bloom.New(256, 0.01)
	msgs := []Message{
		&PatternReport{Node: "n1", SpanPatterns: []*parser.SpanPattern{{ID: "p", Service: "s", Operation: "o"}}},
		&BloomReport{Node: "n1", PatternID: "p", Filter: f},
		&ParamsReport{Node: "n1", TraceID: "t", Spans: []*parser.ParsedSpan{{PatternID: "p"}}},
		&SampleNotice{TraceID: "t", Reason: "r"},
		&RawSpanReport{Node: "n1", Bytes: 100},
	}
	for _, m := range msgs {
		if m.Size() <= 0 {
			t.Errorf("%s size = %d", m.Kind(), m.Size())
		}
		if m.Kind() == "" {
			t.Error("kind must be non-empty")
		}
	}
}

// A Bloom report is metered at the bytes its filter encodes to — what the
// filter holds, not the buffer it was configured with.
func TestBloomReportSizeTracksFilter(t *testing.T) {
	f := bloom.NewDefault()
	r := &BloomReport{Node: "n", PatternID: "p", Filter: f}
	empty := r.Size()
	for i := 0; i < 5; i++ {
		f.Add(fmt.Sprintf("trace-%d", i))
	}
	if want := headerBytes + len("n") + len("p") + len(f.AppendMarshal(nil)); r.Size() != want {
		t.Fatalf("Size = %d, want header + names + encoded filter = %d", r.Size(), want)
	}
	if r.Size() <= empty || r.Size() >= bloom.DefaultBufferBytes/8 {
		t.Fatalf("5-element filter report is %d bytes (empty: %d, buffer: %d)", r.Size(), empty, bloom.DefaultBufferBytes)
	}
	for !f.Full() {
		f.Add(fmt.Sprintf("trace-%d", f.Count()))
	}
	if r.Size() <= bloom.DefaultBufferBytes {
		t.Fatalf("full filter report is %d bytes, below its %d-byte bit array", r.Size(), bloom.DefaultBufferBytes)
	}
}

func TestPatternReportSize(t *testing.T) {
	empty := &PatternReport{Node: "n"}
	one := &PatternReport{Node: "n", TopoPatterns: []*topo.Pattern{{ID: "x", Node: "n", Entry: "e"}}}
	if one.Size() <= empty.Size() {
		t.Fatal("patterns must add to report size")
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter()
	m.Record("n1", &RawSpanReport{Node: "n1", Bytes: 100})
	m.Record("n1", &SampleNotice{TraceID: "t", Reason: "x"})
	m.Record("n2", &RawSpanReport{Node: "n2", Bytes: 50})

	if m.Total() <= 0 {
		t.Fatal("total")
	}
	if m.ByNode("n1") <= m.ByNode("n2") {
		t.Fatal("n1 sent more than n2")
	}
	if m.ByKind("raw") <= 0 || m.ByKind("notice") <= 0 {
		t.Fatal("per-kind accounting")
	}
	if m.ByKind("unknown") != 0 {
		t.Fatal("unknown kind should be 0")
	}
}

func TestBatchAmortizesFraming(t *testing.T) {
	reports := []Message{
		&RawSpanReport{Node: "n", Bytes: 100},
		&SampleNotice{TraceID: "t", Reason: "r"},
		&ParamsReport{Node: "n", TraceID: "t", Spans: []*parser.ParsedSpan{{PatternID: "p"}}},
	}
	b := &Batch{Node: "n"}
	sum := 0
	for _, m := range reports {
		b.Append(m)
		sum += m.Size()
	}
	if b.Len() != len(reports) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(reports))
	}
	if b.Kind() != "batch" {
		t.Fatalf("Kind = %q", b.Kind())
	}
	// One header for the whole envelope instead of one per report: the batch
	// must be smaller than the sum of individually framed messages.
	if b.Size() >= sum {
		t.Fatalf("batch size %d must amortize framing below the %d bytes of separate sends", b.Size(), sum)
	}
	want := headerBytes + len(b.Node) + (sum - len(reports)*headerBytes)
	if b.Size() != want {
		t.Fatalf("batch size = %d, want %d", b.Size(), want)
	}
}

func TestRecordBatchAccounting(t *testing.T) {
	m := NewMeter()
	b := &Batch{Node: "n"}
	b.Append(&RawSpanReport{Node: "n", Bytes: 100})
	b.Append(&SampleNotice{TraceID: "t", Reason: "r"})
	m.RecordBatch("n", b)

	if got := m.Total(); got != int64(b.Size()) {
		t.Fatalf("total = %d, want batch size %d", got, b.Size())
	}
	if m.ByNode("n") != int64(b.Size()) {
		t.Fatal("batch bytes must be attributed to the sending node")
	}
	// Payloads land under the report kinds, framing under "batch".
	if m.ByKind("raw") != int64(100+1) { // Bytes + len(Node) payload
		t.Fatalf("raw payload = %d", m.ByKind("raw"))
	}
	if m.ByKind("notice") <= 0 {
		t.Fatal("notice payload must be accounted")
	}
	if m.ByKind("batch") <= 0 {
		t.Fatal("envelope framing must be accounted under kind batch")
	}
	sum := m.ByKind("raw") + m.ByKind("notice") + m.ByKind("batch")
	if sum != m.Total() {
		t.Fatalf("kind split %d must sum to total %d", sum, m.Total())
	}
}

func TestMeterConcurrentSafe(t *testing.T) {
	m := NewMeter()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				m.Record("n", &RawSpanReport{Node: "n", Bytes: 1})
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	want := int64(4 * 1000 * (headerBytes + 1 + 1))
	if m.Total() != want {
		t.Fatalf("total = %d, want %d", m.Total(), want)
	}
}
