// Package bloom implements the space-efficient probabilistic membership
// structure Mint uses to mount trace metadata onto topology patterns (§3.3).
//
// The implementation follows the standard Bloom filter construction with
// double hashing (Kirsch–Mitzenmacher): two independent 64-bit hash values
// h1, h2 are derived from one FNV-1a pass and the k probe positions are
// h1 + i*h2 mod m. Parameters match the paper's deployment defaults: a fixed
// 4 KB bit buffer per filter and a 1% false-positive probability, which
// together determine the filter's capacity. When the capacity is reached the
// collector reports the filter and resets it; in between, each periodic
// upload ships only what the filter gained since the previous one (Live), and
// the backend ORs it into what it already holds (Union). The bit buffer is
// fixed in memory only: serialized, a filter takes the size of what it holds
// (see AppendMarshal).
package bloom

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// DefaultBufferBytes is the paper's default per-filter buffer size (4 KB).
const DefaultBufferBytes = 4096

// DefaultFPP is the paper's default false-positive probability (Guava's
// falsePositiveProbability parameter set to 0.01).
const DefaultFPP = 0.01

// MaxBufferBytes bounds a filter's bit array (1 MiB, 256x the default). New
// refuses more and Unmarshal rejects a header declaring more, so a few bytes
// from disk or the network can never demand a large allocation, and every
// filter New builds fits the smallest frame that has to carry it (the
// storage engine's 64 MiB record).
const MaxBufferBytes = 1 << 20

// maxProbes bounds k in a serialized header: above anything New derives
// from a float64 fpp, and small enough that a hostile k cannot turn Contains
// into a busy loop.
const maxProbes = 1 << 11

// Filter is a Bloom filter over string keys.
type Filter struct {
	bits     []uint64
	m        uint64 // number of bits
	k        int    // number of hash probes
	n        int    // elements inserted
	capacity int    // elements before FPP is exceeded
	encSize  int    // cached MarshaledSize; 0 = not computed (cleared by Add, Union and Reset)
}

// New creates a filter with a bit array of bufBytes bytes sized for the given
// false-positive probability. It panics if bufBytes is outside
// (0, MaxBufferBytes] or fpp is outside (0, 1); configuration errors are
// programming errors here.
func New(bufBytes int, fpp float64) *Filter {
	if bufBytes <= 0 || bufBytes > MaxBufferBytes {
		panic("bloom: buffer size must be in (0, MaxBufferBytes]")
	}
	if fpp <= 0 || fpp >= 1 {
		panic("bloom: fpp must be in (0, 1)")
	}
	m := uint64(bufBytes) * 8
	// Optimal k for a target fpp is -log2(fpp); capacity follows from
	// n = -m (ln 2)^2 / ln p.
	k := int(math.Ceil(-math.Log2(fpp)))
	if k < 1 {
		k = 1
	}
	capacity := int(-float64(m) * math.Ln2 * math.Ln2 / math.Log(fpp))
	if capacity < 1 {
		capacity = 1
	}
	return &Filter{
		bits:     make([]uint64, (m+63)/64),
		m:        m,
		k:        k,
		n:        0,
		capacity: capacity,
	}
}

// NewDefault creates a filter with the paper's defaults (4 KB, FPP 0.01).
func NewDefault() *Filter { return New(DefaultBufferBytes, DefaultFPP) }

// FNV-1a constants, inlined so hashing a key never allocates (hash/fnv's
// Hash64 plus the string→[]byte conversions were two heap allocations per
// Add/Contains on the mount and probe hot paths).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1aString(h uint64, key string) uint64 {
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// hash2 derives the two double-hashing values from one FNV-1a pass. The
// second value hashes the little-endian bytes of the first followed by the
// key again, which keeps the two probes independent enough; both values are
// bit-identical to the previous hash/fnv-based implementation.
func hash2(key string) (uint64, uint64) {
	h1 := fnv1aString(fnvOffset64, key)
	h2 := uint64(fnvOffset64)
	for i := 0; i < 64; i += 8 {
		h2 ^= uint64(byte(h1 >> i))
		h2 *= fnvPrime64
	}
	h2 = fnv1aString(h2, key) | 1 // force odd so probes cycle through all positions
	return h1, h2
}

// Add inserts key into the filter.
func (f *Filter) Add(key string) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
	f.encSize = 0
}

// ErrShape reports a Union of filters that cannot be merged: differing bit
// count, probe count or capacity (a key's probe positions are a function of
// the first two), or an element count that would overflow.
var ErrShape = errors.New("bloom: filters of different shapes cannot be merged")

// sameShape reports whether o probes the same positions as f for every key
// and fills at the same count.
func (f *Filter) sameShape(o *Filter) bool {
	return f.m == o.m && f.k == o.k && f.capacity == o.capacity
}

// Union merges o into f: the bit arrays are OR-ed and the element counts
// added, so f afterwards contains every key either filter contained. o is
// left unchanged. Filters of different shapes are refused with ErrShape and f
// is left unchanged. The count is a sum of insertions, not of distinct keys:
// merging the same filter twice leaves the bits as they were and counts its
// elements twice.
func (f *Filter) Union(o *Filter) error {
	if !f.sameShape(o) || o.n > math.MaxInt-f.n {
		return ErrShape
	}
	for i, w := range o.bits {
		f.bits[i] |= w
	}
	f.n += o.n
	f.encSize = 0
	return nil
}

// Covers reports whether f has the shape of o and every bit o has set, that
// is, whether f answers true for every key o answers true for.
func (f *Filter) Covers(o *Filter) bool {
	if !f.sameShape(o) {
		return false
	}
	for i, w := range o.bits {
		if w&^f.bits[i] != 0 {
			return false
		}
	}
	return true
}

// Contains reports whether key may be in the set. False positives occur with
// probability ≈ FPP at capacity; false negatives never occur — the no-miss
// property Mint's trace coherence relies on.
func (f *Filter) Contains(key string) bool {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of inserted elements.
func (f *Filter) Count() int { return f.n }

// Capacity returns how many elements the filter holds before exceeding its
// target false-positive probability.
func (f *Filter) Capacity() int { return f.capacity }

// Full reports whether the filter has reached capacity and should be
// reported and reset by the collector.
func (f *Filter) Full() bool { return f.n >= f.capacity }

// Reset clears the filter for reuse after its contents have been reported.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
	f.encSize = 0
}

// Snapshot returns a copy of the filter that shares no state with it. Its
// encoded size is computed here, once (or taken over, where f already knows
// its own), so every later MarshaledSize call on the copy (the meter, the
// rpc envelope, the storage accounting) is a field read.
func (f *Filter) Snapshot() *Filter {
	c := f.emptyLike()
	copy(c.bits, f.bits)
	c.n = f.n
	c.encSize = f.MarshaledSize()
	return c
}

// Live is the agent-side state of one mounted filter. Beside the filter
// itself — which decides when it is full, and is what a full report ships —
// it keeps the delta: a filter of the same shape holding only the keys added
// since the previous TakeDelta. A periodic upload ships the delta, so a key's
// bits cross the network once instead of once per upload until the filter
// fills. Every delta is a complete filter of its own keys (all k bits of
// each), so the backend may OR deltas together in any grouping, and a key
// answers from whichever merged segment received its delta.
type Live struct {
	all, delta *Filter
}

// NewLive creates an empty live filter; the arguments are New's.
func NewLive(bufBytes int, fpp float64) *Live {
	all := New(bufBytes, fpp)
	return &Live{all: all, delta: all.emptyLike()}
}

// emptyLike returns an empty filter of f's shape.
func (f *Filter) emptyLike() *Filter {
	return &Filter{bits: make([]uint64, len(f.bits)), m: f.m, k: f.k, capacity: f.capacity}
}

// Add inserts key into the filter and into the delta, from one hash pass.
func (l *Live) Add(key string) {
	f, d := l.all, l.delta
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		w, bit := pos/64, uint64(1)<<(pos%64)
		f.bits[w] |= bit
		d.bits[w] |= bit
	}
	f.n++
	d.n++
	f.encSize, d.encSize = 0, 0
}

// Full reports whether the filter has reached capacity.
func (l *Live) Full() bool { return l.all.Full() }

// TakeDelta returns a detached filter holding exactly the keys added since
// the previous TakeDelta (or TakeFull), and starts the next delta empty. It
// returns nil when nothing was added.
func (l *Live) TakeDelta() *Filter {
	d := l.delta
	if d.n == 0 {
		return nil
	}
	l.delta = d.emptyLike()
	d.encSize = d.MarshaledSize()
	return d
}

// TakeFull returns the whole filter, detached, and starts both it and the
// delta empty: the filter returned holds every key a delta not yet taken
// would have shipped.
func (l *Live) TakeFull() *Filter {
	full := l.all
	l.all = full.emptyLike()
	l.delta.Reset()
	full.encSize = full.MarshaledSize()
	return full
}

// Serialized layout — the one filter encoding, used by wire reports, rpc
// envelopes, WAL and snapshot records alike:
//
//	uvarint m | uvarint k | uvarint n | uvarint capacity | form byte | body
//
//	formDense  body: ceil(m/64) little-endian 64-bit words
//	formSparse body: the set-bit positions in ascending order, as uvarint
//	                 gaps to the end of the input (the first gap is
//	                 position+1, so every gap is >= 1)
//
// The encoder takes whichever body is shorter for the bits the filter holds
// (dense on a tie), so a filter costs the bytes of what it contains rather
// than of its configured buffer. The choice is a function of the bits alone:
// every filter has exactly one encoding, and Unmarshal accepts only that one.
// Filters stay dense in memory; only the serialized form varies.
const (
	formDense  = 0
	formSparse = 1
)

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (f *Filter) headerSize() int {
	return uvarintLen(f.m) + uvarintLen(uint64(f.k)) + uvarintLen(uint64(f.n)) + uvarintLen(uint64(f.capacity))
}

// denseBody is the byte length of the dense body.
func (f *Filter) denseBody() int { return len(f.bits) * 8 }

// eachGap calls fn with the distance from each set bit to the one before it
// (position+1 for the first), in ascending order, until fn returns false.
func (f *Filter) eachGap(fn func(gap uint64) bool) {
	next := uint64(0)
	for i, w := range f.bits {
		for ; w != 0; w &= w - 1 {
			pos := uint64(i)*64 + uint64(bits.TrailingZeros64(w))
			if !fn(pos + 1 - next) {
				return
			}
			next = pos + 1
		}
	}
}

// bodySize returns the byte length of the shorter body; it equals denseBody
// exactly when the dense form is the one to write. The walk stops once the
// sparse body can no longer beat the dense one.
func (f *Filter) bodySize() int {
	dense, sparse := f.denseBody(), 0
	f.eachGap(func(gap uint64) bool {
		sparse += uvarintLen(gap)
		return sparse < dense
	})
	return min(sparse, dense)
}

// MarshaledSize returns the byte length AppendMarshal produces.
func (f *Filter) MarshaledSize() int {
	if f.encSize != 0 {
		return f.encSize
	}
	return f.headerSize() + 1 + f.bodySize()
}

// AppendMarshal appends the serialization to dst, for callers encoding into
// reused buffers.
func (f *Filter) AppendMarshal(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, f.m)
	dst = binary.AppendUvarint(dst, uint64(f.k))
	dst = binary.AppendUvarint(dst, uint64(f.n))
	dst = binary.AppendUvarint(dst, uint64(f.capacity))
	if body := f.MarshaledSize() - f.headerSize() - 1; body == f.denseBody() {
		dst = append(dst, formDense)
		for _, w := range f.bits {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst
	}
	dst = append(dst, formSparse)
	f.eachGap(func(gap uint64) bool {
		dst = binary.AppendUvarint(dst, gap)
		return true
	})
	return dst
}

// ErrCorrupt reports a malformed serialized filter.
var ErrCorrupt = errors.New("bloom: corrupt serialized filter")

// Unmarshal reconstructs a filter serialized by AppendMarshal. The input
// comes from disk or the network: sizes are bounded before anything is
// allocated, and anything but the canonical encoding of the decoded filter
// (a position outside the bit array, a zero gap, the longer of the two
// forms, a padded varint, bytes after a dense body) is rejected.
func Unmarshal(data []byte) (*Filter, error) {
	rest := data
	var hdr [4]uint64
	for i := range hdr {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		hdr[i], rest = v, rest[n:]
	}
	m, k, n, capacity := hdr[0], hdr[1], hdr[2], hdr[3]
	if m == 0 || m > MaxBufferBytes*8 || k < 1 || k > maxProbes ||
		n > math.MaxInt || capacity < 1 || capacity > math.MaxInt || len(rest) < 1 {
		return nil, ErrCorrupt
	}
	form, rest := rest[0], rest[1:]
	f := &Filter{m: m, k: int(k), n: int(n), capacity: int(capacity)}
	words := int((m + 63) / 64)
	switch form {
	case formDense:
		if len(rest) != words*8 {
			return nil, ErrCorrupt
		}
		f.bits = make([]uint64, words)
		for i := range f.bits {
			f.bits[i] = binary.LittleEndian.Uint64(rest[i*8:])
		}
		if tail := m % 64; tail != 0 && f.bits[words-1]>>tail != 0 {
			return nil, ErrCorrupt // a bit at a position >= m
		}
	case formSparse:
		f.bits = make([]uint64, words)
		next := uint64(0)
		for len(rest) > 0 {
			gap, vn := binary.Uvarint(rest)
			if vn <= 0 || gap == 0 || gap > m-next {
				return nil, ErrCorrupt
			}
			pos := next + gap - 1
			f.bits[pos/64] |= 1 << (pos % 64)
			next, rest = pos+1, rest[vn:]
		}
	default:
		return nil, ErrCorrupt
	}
	body := f.bodySize()
	if f.headerSize()+1+body != len(data) || (body < f.denseBody()) != (form == formSparse) {
		return nil, ErrCorrupt
	}
	f.encSize = len(data)
	return f, nil
}
