// Package buffer implements the Params Buffer (§4.1): a fixed-size FIFO
// queue in which variable parameters wait for a sampling decision.
// Parameters from the same trace ID are grouped into one block; when the
// buffer is full the block at the front of the queue is evicted.
//
// The queue is intrusive: each block carries its own prev/next links, so
// Push, eviction and Take are each a map operation plus an O(1) link or
// unlink, however many blocks the buffer holds.
package buffer

import (
	"sync"

	"repro/internal/parser"
)

// DefaultBytes is the paper's default Params Buffer size (4 MB).
const DefaultBytes = 4 << 20

// Block groups the parameters of one trace on one node.
type Block struct {
	TraceID string
	Spans   []*parser.ParsedSpan
	bytes   int

	prev, next *Block // queue links, guarded by the owning Buffer's mu
}

// Size returns the block's byte footprint.
func (b *Block) Size() int { return b.bytes }

// Buffer is a bounded FIFO of per-trace parameter blocks.
type Buffer struct {
	mu       sync.Mutex
	capacity int
	used     int
	front    *Block // oldest block, evicted first
	back     *Block // newest block
	blocks   map[string]*Block
	evicted  uint64 // blocks dropped due to capacity
}

// New creates a Params Buffer with the given capacity in bytes (0 means the
// 4 MB paper default).
func New(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultBytes
	}
	return &Buffer{capacity: capacity, blocks: map[string]*Block{}}
}

// Push appends a parsed span's parameters to its trace's block, creating the
// block at the back of the queue if needed, and evicts front blocks until
// the buffer fits its capacity.
func (b *Buffer) Push(ps *parser.ParsedSpan) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blk, ok := b.blocks[ps.TraceID]
	if !ok {
		blk = &Block{TraceID: ps.TraceID, prev: b.back}
		if b.back != nil {
			b.back.next = blk
		} else {
			b.front = blk
		}
		b.back = blk
		b.blocks[ps.TraceID] = blk
	}
	sz := ps.Size()
	blk.Spans = append(blk.Spans, ps)
	blk.bytes += sz
	b.used += sz
	for b.used > b.capacity && b.front != nil {
		b.unlink(b.front)
		b.evicted++
	}
}

// Take removes and returns the block for a trace ID, if present. The
// collector calls this when a trace is marked sampled.
func (b *Buffer) Take(traceID string) (*Block, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blk, ok := b.blocks[traceID]
	if !ok {
		return nil, false
	}
	b.unlink(blk)
	return blk, true
}

// unlink removes blk from the queue and the index and releases its bytes.
func (b *Buffer) unlink(blk *Block) {
	if blk.prev != nil {
		blk.prev.next = blk.next
	} else {
		b.front = blk.next
	}
	if blk.next != nil {
		blk.next.prev = blk.prev
	} else {
		b.back = blk.prev
	}
	blk.prev, blk.next = nil, nil
	delete(b.blocks, blk.TraceID)
	b.used -= blk.bytes
}

// Peek returns the block for a trace ID without removing it.
func (b *Buffer) Peek(traceID string) (*Block, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blk, ok := b.blocks[traceID]
	return blk, ok
}

// Len returns the number of buffered blocks.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.blocks)
}

// Used returns the buffered bytes.
func (b *Buffer) Used() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Evicted returns how many blocks have been dropped due to capacity.
func (b *Buffer) Evicted() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evicted
}
