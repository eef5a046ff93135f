package buffer

import (
	"fmt"
	"testing"

	"repro/internal/parser"
)

func ps(traceID string, payload int) *parser.ParsedSpan {
	params := make([]string, payload)
	for i := range params {
		params[i] = "xxxxxxxx"
	}
	return &parser.ParsedSpan{
		PatternID: "p", TraceID: traceID, SpanID: "s", ParentID: "",
		AttrParams: [][]string{params},
	}
}

func TestPushGroupsByTrace(t *testing.T) {
	b := New(1 << 20)
	b.Push(ps("t1", 1))
	b.Push(ps("t1", 1))
	b.Push(ps("t2", 1))
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 blocks", b.Len())
	}
	blk, ok := b.Peek("t1")
	if !ok || len(blk.Spans) != 2 {
		t.Fatalf("t1 block = %+v", blk)
	}
}

func TestFIFOEviction(t *testing.T) {
	one := ps("x", 10).Size()
	b := New(one * 3)
	for i := 0; i < 5; i++ {
		b.Push(ps(fmt.Sprintf("t%d", i), 10))
	}
	// Oldest first: t0 and t1 make room for t3 and t4.
	if b.Evicted() != 2 || b.Len() != 3 || b.Used() != one*3 {
		t.Fatalf("evicted %d, len %d, used %d; want 2, 3, %d", b.Evicted(), b.Len(), b.Used(), one*3)
	}
	for i, want := range []bool{false, false, true, true, true} {
		if _, ok := b.Peek(fmt.Sprintf("t%d", i)); ok != want {
			t.Fatalf("t%d buffered = %v, want %v", i, ok, want)
		}
	}
}

func TestTake(t *testing.T) {
	b := New(1 << 20)
	b.Push(ps("t1", 1))
	b.Push(ps("t2", 1))
	blk, ok := b.Take("t1")
	if !ok || blk.TraceID != "t1" {
		t.Fatalf("take = %+v, %v", blk, ok)
	}
	if _, ok := b.Take("t1"); ok {
		t.Fatal("double take must fail")
	}
	if b.Len() != 1 {
		t.Fatalf("Len after take = %d", b.Len())
	}
	if _, ok := b.Take("missing"); ok {
		t.Fatal("taking a missing trace must fail")
	}
	// Used decreases.
	if b.Used() != ps("t2", 1).Size() {
		t.Fatalf("used = %d", b.Used())
	}
}

// Eviction stays oldest-first when blocks are taken out of the middle, the
// front and the back of the queue in between pushes, and a trace ID pushed
// again after its Take queues as a new block at the back.
func TestEvictionOrderWithInterleavedTake(t *testing.T) {
	one := ps("x", 10).Size()
	b := New(one * 4)
	take := func(id string) {
		t.Helper()
		blk, ok := b.Take(id)
		if !ok || blk.TraceID != id {
			t.Fatalf("Take(%s) = %+v, %v", id, blk, ok)
		}
	}

	for _, id := range []string{"t0", "t1", "t2", "t3"} {
		b.Push(ps(id, 10))
	}
	take("t1")           // middle
	take("t0")           // front
	take("t3")           // back: t2 alone
	b.Push(ps("t4", 10)) // t2 t4
	b.Push(ps("t1", 10)) // t2 t4 t1: re-pushed ID queues at the back
	b.Push(ps("t5", 10)) // t2 t4 t1 t5
	if b.Evicted() != 0 || b.Len() != 4 || b.Used() != 4*one {
		t.Fatalf("before overflow: evicted %d, len %d, used %d", b.Evicted(), b.Len(), b.Used())
	}
	buffered := func(want string) {
		t.Helper()
		var got []string
		for _, id := range []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"} {
			if _, ok := b.Peek(id); ok {
				got = append(got, id)
			}
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("buffered %v, want %s", got, want)
		}
	}
	take("t4")           // t2 t1 t5
	b.Push(ps("t6", 10)) // t2 t1 t5 t6
	b.Push(ps("t7", 10)) // evicts t2
	if b.Evicted() != 1 {
		t.Fatalf("evicted %d blocks, want 1", b.Evicted())
	}
	buffered("[t1 t5 t6 t7]")
	b.Push(ps("t8", 10)) // evicts t1, the re-pushed block, in its new position
	buffered("[t5 t6 t7 t8]")
	if b.Evicted() != 2 || b.Len() != 4 || b.Used() != 4*one {
		t.Fatalf("after overflow: evicted %d, len %d, used %d", b.Evicted(), b.Len(), b.Used())
	}
	// Drain through Take: the queue ends empty and reusable.
	for _, id := range []string{"t8", "t5", "t7", "t6"} {
		take(id)
	}
	if b.Len() != 0 || b.Used() != 0 {
		t.Fatalf("drained buffer: len %d, used %d", b.Len(), b.Used())
	}
	b.Push(ps("t9", 10))
	if _, ok := b.Peek("t9"); !ok || b.Len() != 1 || b.Used() != one {
		t.Fatalf("push into a drained buffer: len %d, used %d", b.Len(), b.Used())
	}
}

func TestDefaultCapacity(t *testing.T) {
	b := New(0)
	if b.capacity != DefaultBytes {
		t.Fatalf("default capacity = %d, want %d", b.capacity, DefaultBytes)
	}
}

func TestBlockSize(t *testing.T) {
	b := New(1 << 20)
	span := ps("t1", 5)
	b.Push(span)
	blk, _ := b.Peek("t1")
	if blk.Size() != span.Size() {
		t.Fatalf("block size = %d, want %d", blk.Size(), span.Size())
	}
}

// model is a slice-based reference Params Buffer: a block list in queue
// order, scanned linearly. FuzzBufferOps holds Buffer to it.
type model struct {
	capacity, used int
	evicted        uint64
	blocks         []*Block // front first
}

func (m *model) find(id string) int {
	for i, blk := range m.blocks {
		if blk.TraceID == id {
			return i
		}
	}
	return -1
}

func (m *model) push(p *parser.ParsedSpan) {
	i := m.find(p.TraceID)
	if i < 0 {
		i = len(m.blocks)
		m.blocks = append(m.blocks, &Block{TraceID: p.TraceID})
	}
	m.blocks[i].Spans = append(m.blocks[i].Spans, p)
	m.blocks[i].bytes += p.Size()
	m.used += p.Size()
	for m.used > m.capacity && len(m.blocks) > 0 {
		m.used -= m.blocks[0].bytes
		m.blocks = m.blocks[1:]
		m.evicted++
	}
}

func (m *model) take(id string) (*Block, bool) {
	i := m.find(id)
	if i < 0 {
		return nil, false
	}
	blk := m.blocks[i]
	m.blocks = append(m.blocks[:i:i], m.blocks[i+1:]...)
	m.used -= blk.bytes
	return blk, true
}

// FuzzBufferOps decodes the input into Push and Take operations over eight
// trace IDs and checks Buffer against the reference model after each one.
// The first byte sets the capacity in 4-byte units; then each op is two
// bytes: the first picks Take (high bit set) or Push and the trace ID (low 3
// bits), the second the pushed span's parameter count (mod 16).
func FuzzBufferOps(f *testing.F) {
	// TestEvictionOrderWithInterleavedTake's sequence, with its capacity of
	// four 10-parameter spans; its t8 and t9 become t0 and t2, both out of
	// the buffer by then.
	one := ps("x", 10).Size()
	seq := []byte{byte(one - 1)}
	push := func(k byte) { seq = append(seq, k, 10) }
	take := func(k byte) { seq = append(seq, 0x80|k, 0) }
	push(0)
	push(1)
	push(2)
	push(3)
	take(1)
	take(0)
	take(3)
	push(4)
	push(1)
	push(5)
	take(4)
	push(6)
	push(7)
	push(0)
	take(0)
	take(5)
	take(7)
	take(6)
	push(2)
	f.Add(seq)
	f.Add([]byte{0, 1, 15, 1, 3, 0x81, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 4 * (1 + int(data[0]))
		b, m := New(capacity), &model{capacity: capacity}
		ids := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			id := ids[op&7]
			if op&0x80 == 0 {
				p := ps(id, int(arg%16))
				b.Push(p)
				m.push(p)
			} else {
				got, gotOK := b.Take(id)
				want, wantOK := m.take(id)
				if gotOK != wantOK || (gotOK && !sameSpans(got.Spans, want.Spans)) {
					t.Fatalf("op %d: Take(%s) = %v, %v; want %v, %v", i/2, id, got, gotOK, want, wantOK)
				}
			}
			if b.Len() != len(m.blocks) || b.Used() != m.used || b.Evicted() != m.evicted {
				t.Fatalf("op %d: len %d used %d evicted %d; want %d %d %d",
					i/2, b.Len(), b.Used(), b.Evicted(), len(m.blocks), m.used, m.evicted)
			}
			for _, id := range ids {
				got, gotOK := b.Peek(id)
				j := m.find(id)
				if gotOK != (j >= 0) || (gotOK && (got.Size() != m.blocks[j].bytes || !sameSpans(got.Spans, m.blocks[j].Spans))) {
					t.Fatalf("op %d: Peek(%s) = %v, %v; want index %d", i/2, id, got, gotOK, j)
				}
			}
		}
	})
}

func sameSpans(a, b []*parser.ParsedSpan) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
