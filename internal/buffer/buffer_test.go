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
	var evicted []string
	b.OnEvict(func(blk *Block) { evicted = append(evicted, blk.TraceID) })
	for i := 0; i < 5; i++ {
		b.Push(ps(fmt.Sprintf("t%d", i), 10))
	}
	if b.Evicted() == 0 {
		t.Fatal("buffer should have evicted blocks")
	}
	// Oldest first.
	if len(evicted) == 0 || evicted[0] != "t0" {
		t.Fatalf("evicted = %v, want front of queue first", evicted)
	}
	if _, ok := b.Peek("t0"); ok {
		t.Fatal("evicted block must be gone")
	}
	if b.Used() > one*3 {
		t.Fatalf("used %d exceeds capacity %d", b.Used(), one*3)
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
	var evicted []string
	b.OnEvict(func(blk *Block) { evicted = append(evicted, blk.TraceID) })
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
	if len(evicted) != 0 || b.Len() != 4 || b.Used() != 4*one {
		t.Fatalf("before overflow: evicted %v, len %d, used %d", evicted, b.Len(), b.Used())
	}
	take("t4")           // t2 t1 t5
	b.Push(ps("t6", 10)) // t2 t1 t5 t6
	b.Push(ps("t7", 10)) // evicts t2
	b.Push(ps("t8", 10)) // evicts t1, the re-pushed block, in its new position
	if want := "[t2 t1]"; fmt.Sprint(evicted) != want {
		t.Fatalf("evicted %v, want %s", evicted, want)
	}
	if blk, ok := b.Peek("t1"); ok {
		t.Fatalf("evicted block still indexed: %+v", blk)
	}
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
