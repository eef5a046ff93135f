package bloom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

func filled(f *Filter, n int) *Filter {
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("trace-%d", i))
	}
	return f
}

// codecCases are the filters every codec test and the fuzz corpus start
// from: both forms, both sides of the point where the encoder switches, a
// bit array that does not fill its last word, and a non-default fpp.
func codecCases() map[string]*Filter {
	// Walk a default filter up to the first element that makes the dense
	// form the shorter one; keep it and its predecessor.
	lastSparse, firstDense := NewDefault(), NewDefault()
	for firstDense.bodySize() < firstDense.denseBody() {
		lastSparse = firstDense.Snapshot()
		firstDense.Add(fmt.Sprintf("trace-%d", firstDense.Count()))
	}
	full := NewDefault()
	return map[string]*Filter{
		"empty":         NewDefault(),
		"one":           filled(NewDefault(), 1),
		"handful":       filled(NewDefault(), 5),
		"last-sparse":   lastSparse,
		"first-dense":   firstDense,
		"full":          filled(full, full.Capacity()),
		"small-buffer":  filled(New(512, 0.01), 10),
		"ragged-word":   filled(New(12, 0.01), 3), // m = 96: the last word is half used
		"tiny-dense":    filled(New(8, 0.01), 40),
		"tight-fpp":     filled(New(4096, 0.001), 100),
		"snapshot-copy": filled(NewDefault(), 7).Snapshot(),
	}
}

func TestCodecRoundTrip(t *testing.T) {
	forms := map[byte]int{}
	for name, f := range codecCases() {
		data := f.AppendMarshal(nil)
		if f.MarshaledSize() != len(data) {
			t.Errorf("%s: MarshaledSize = %d, AppendMarshal wrote %d bytes", name, f.MarshaledSize(), len(data))
		}
		g, err := Unmarshal(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.m != f.m || g.k != f.k || g.n != f.n || g.capacity != f.capacity {
			t.Errorf("%s: header (m,k,n,cap) = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				name, g.m, g.k, g.n, g.capacity, f.m, f.k, f.n, f.capacity)
		}
		if len(g.bits) != len(f.bits) {
			t.Errorf("%s: %d words, want %d", name, len(g.bits), len(f.bits))
			continue
		}
		for i := range f.bits {
			if g.bits[i] != f.bits[i] {
				t.Errorf("%s: word %d = %#x, want %#x", name, i, g.bits[i], f.bits[i])
				break
			}
		}
		if g.Full() != f.Full() {
			t.Errorf("%s: Full() = %v, want %v", name, g.Full(), f.Full())
		}
		if again := g.AppendMarshal(nil); !bytes.Equal(again, data) {
			t.Errorf("%s: decoded filter re-encodes differently", name)
		}
		forms[data[f.headerSize()]]++
	}
	if forms[formDense] == 0 || forms[formSparse] == 0 {
		t.Fatalf("cases must cover both forms, got %v", forms)
	}
}

// The encoded size follows what the filter holds, not its buffer: this is
// what BloomReport.Size, and through it network_ratio and storage_ratio,
// count.
func TestEncodedSizeTracksContents(t *testing.T) {
	c := codecCases()
	if got := c["empty"].MarshaledSize(); got > 16 {
		t.Errorf("empty default filter marshals to %d bytes", got)
	}
	if got := c["handful"].MarshaledSize(); got > 128 {
		t.Errorf("5-element default filter marshals to %d bytes", got)
	}
	if got, dense := c["last-sparse"].MarshaledSize(), c["first-dense"].MarshaledSize(); got >= dense {
		t.Errorf("last sparse encoding (%d B) is not shorter than the dense one (%d B)", got, dense)
	}
	if got, want := c["full"].MarshaledSize(), c["full"].headerSize()+1+DefaultBufferBytes; got != want {
		t.Errorf("full filter marshals to %d bytes, want header + form + buffer = %d", got, want)
	}
}

// A round-tripped filter keeps the capacity it was built with, so Full()
// means the same thing on both sides whatever BloomFPP was configured.
func TestRoundTripKeepsConfiguredCapacity(t *testing.T) {
	f := filled(New(4096, 0.001), 10)
	if f.Capacity() == NewDefault().Capacity() {
		t.Fatal("test needs an fpp whose capacity differs from the default's")
	}
	g, err := Unmarshal(f.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.Capacity() != f.Capacity() {
		t.Fatalf("capacity after round trip = %d, want %d", g.Capacity(), f.Capacity())
	}
}

// The size is worked out once per snapshot (and known for free after a
// decode); the meter, the rpc envelope and the storage accounting then
// each read it. A live filter never serves a stale size.
func TestMarshaledSizeCachedPerSnapshot(t *testing.T) {
	live := filled(NewDefault(), 3)
	snap := live.Snapshot()
	data := snap.AppendMarshal(nil)
	if snap.encSize != len(data) {
		t.Fatalf("snapshot cached size %d, encodes to %d", snap.encSize, len(data))
	}
	dec, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.encSize != len(data) {
		t.Fatalf("decoded filter cached size %d, want %d", dec.encSize, len(data))
	}
	snap.Add("later")
	if snap.encSize != 0 || snap.MarshaledSize() != len(snap.AppendMarshal(nil)) {
		t.Fatal("Add must drop the cached size")
	}
	snap = snap.Snapshot()
	snap.Reset()
	if snap.encSize != 0 || snap.MarshaledSize() != len(snap.AppendMarshal(nil)) {
		t.Fatal("Reset must drop the cached size")
	}
}

// enc builds a serialized filter by hand: header fields, form byte, body.
func enc(m, k, n, capacity uint64, form byte, body ...byte) []byte {
	var b []byte
	for _, v := range []uint64{m, k, n, capacity} {
		b = binary.AppendUvarint(b, v)
	}
	return append(append(b, form), body...)
}

func TestUnmarshalRejects(t *testing.T) {
	zeros := make([]byte, 8)
	for name, data := range map[string][]byte{
		"empty input":          nil,
		"truncated header":     {64, 7},
		"no form byte":         enc(64, 7, 1, 6, 0)[:4],
		"m zero":               enc(0, 7, 0, 6, formSparse),
		"m above bound":        enc(MaxBufferBytes*8+64, 7, 0, 6, formSparse),
		"k zero":               enc(64, 0, 0, 6, formSparse),
		"k above bound":        enc(64, maxProbes+1, 0, 6, formSparse),
		"n overflows int":      enc(64, 7, 1<<63, 6, formSparse),
		"capacity zero":        enc(64, 7, 0, 0, formSparse),
		"unknown form":         enc(64, 7, 0, 6, 2),
		"dense too short":      enc(64, 7, 0, 6, formDense, zeros[:7]...),
		"dense trailing byte":  enc(64, 7, 0, 6, formDense, append(zeros, 0)...),
		"dense where sparse":   enc(64, 7, 0, 6, formDense, zeros...),
		"dense bit beyond m":   enc(8, 7, 9, 6, formDense, 0xFF, 0x01, 0, 0, 0, 0, 0, 0),
		"sparse zero gap":      enc(64, 7, 1, 6, formSparse, 1, 0),
		"sparse position == m": enc(64, 7, 1, 6, formSparse, 65),
		"sparse gap overflows": enc(64, 7, 1, 6, formSparse, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
		"sparse torn gap":      enc(64, 7, 1, 6, formSparse, 1, 0x80),
		"sparse more than m":   enc(8, 7, 1, 6, formSparse, 1, 1, 1, 1, 1, 1, 1, 1, 1),
		"sparse where dense":   enc(8, 7, 9, 6, formSparse, 1, 1, 1, 1, 1, 1, 1, 1),
		"padded header varint": append([]byte{0xC0, 0x00}, enc(64, 7, 1, 6, formSparse, 1)[1:]...),
		"padded gap varint":    enc(64, 7, 1, 6, formSparse, 0x81, 0x00),
	} {
		if _, err := Unmarshal(data); err != ErrCorrupt {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// The hand-built shape itself is fine: the same bytes without a defect decode.
	if _, err := Unmarshal(enc(64, 7, 1, 6, formSparse, 1)); err != nil {
		t.Fatalf("well-formed sparse filter rejected: %v", err)
	}
}

// FuzzBloomUnmarshal feeds the decoder the bytes a disk or a peer could hand
// it. It must not panic or allocate beyond the buffer bound, and whatever it
// accepts must be the canonical encoding: it re-encodes to the same bytes.
func FuzzBloomUnmarshal(f *testing.F) {
	for _, c := range codecCases() {
		f.Add(c.AppendMarshal(nil))
	}
	f.Add(enc(64, 7, 1, 6, formSparse, 65))
	f.Add(enc(MaxBufferBytes*8, 7, 1, 6, formSparse, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Unmarshal(data)
		if err != nil {
			return
		}
		if len(g.bits) > MaxBufferBytes/8 {
			t.Fatalf("accepted a %d-word bit array", len(g.bits))
		}
		if g.MarshaledSize() != len(data) {
			t.Fatalf("MarshaledSize = %d for a %d-byte input", g.MarshaledSize(), len(data))
		}
		if again := g.AppendMarshal(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", data, again)
		}
		g.Contains("probe")
	})
}

// keysOf names the elements filled() put into a filter of n elements.
func keysOf(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("trace-%d", i)
	}
	return keys
}

// Union is what the backend merges a periodic delta into its live segment
// with: the result answers for every key of both inputs, counts both, and
// serves a fresh encoded size.
func TestUnion(t *testing.T) {
	a := filled(NewDefault(), 40)
	b := NewDefault()
	for i := 0; i < 25; i++ {
		b.Add(fmt.Sprintf("other-%d", i))
	}
	a, b = a.Snapshot(), b.Snapshot() // both carry a cached size, as a decoded filter does
	bBytes := b.AppendMarshal(nil)
	stale := a.MarshaledSize()
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 65 {
		t.Fatalf("count after union = %d, want 40 + 25", a.Count())
	}
	for _, k := range keysOf(40) {
		if !a.Contains(k) {
			t.Fatalf("union lost %s", k)
		}
	}
	for i := 0; i < 25; i++ {
		if k := fmt.Sprintf("other-%d", i); !a.Contains(k) {
			t.Fatalf("union lacks %s", k)
		}
	}
	data := a.AppendMarshal(nil)
	if a.MarshaledSize() != len(data) || len(data) <= stale {
		t.Fatalf("MarshaledSize after union = %d (was %d), encodes to %d: the cached size must be dropped",
			a.MarshaledSize(), stale, len(data))
	}
	if g, err := Unmarshal(data); err != nil || !g.Covers(a) || !a.Covers(g) {
		t.Fatalf("merged filter does not round-trip: %v", err)
	}
	if !bytes.Equal(b.AppendMarshal(nil), bBytes) {
		t.Fatal("union changed its argument")
	}
	// The bits are idempotent, the count is not: a re-delivered delta is
	// counted again, which is why the transport applies each exactly once.
	again := a.Snapshot()
	if err := again.Union(b); err != nil || !a.Covers(again) || again.Count() != 90 {
		t.Fatalf("second union of the same filter: err %v, count %d", err, again.Count())
	}
}

func TestUnionRejectsDifferentShapes(t *testing.T) {
	base := filled(NewDefault(), 3)
	before := base.AppendMarshal(nil)
	huge := NewDefault()
	huge.n = int(^uint(0)>>1) - 1
	for name, o := range map[string]*Filter{
		"other m":         filled(New(512, DefaultFPP), 3),
		"other k":         {bits: make([]uint64, len(base.bits)), m: base.m, k: base.k + 1, capacity: base.capacity},
		"other capacity":  {bits: make([]uint64, len(base.bits)), m: base.m, k: base.k, capacity: base.capacity + 1},
		"count overflows": huge,
	} {
		if err := base.Union(o); err != ErrShape {
			t.Errorf("%s: err = %v, want ErrShape", name, err)
		}
		if name != "count overflows" && (base.Covers(o) || o.Covers(base)) {
			t.Errorf("%s: Covers must refuse filters of different shapes", name)
		}
		if !bytes.Equal(base.AppendMarshal(nil), before) {
			t.Fatalf("%s: a refused union changed the filter", name)
		}
	}
}

func TestCovers(t *testing.T) {
	small, big := filled(NewDefault(), 5), filled(NewDefault(), 50)
	if !big.Covers(small) || small.Covers(big) {
		t.Fatal("a filter covers the filters of its subsets, and only those")
	}
	if !small.Covers(NewDefault()) || !small.Covers(small) {
		t.Fatal("every filter covers the empty one and itself")
	}
}

// Live ships each key once: the deltas taken between fills are disjoint in
// keys, their union is the whole filter, and a fill empties both.
func TestLiveDeltasAddUpToTheFilter(t *testing.T) {
	l := NewLive(DefaultBufferBytes, DefaultFPP)
	if l.TakeDelta() != nil {
		t.Fatal("an empty filter has no delta")
	}
	whole, merged := NewDefault(), NewDefault()
	for round, n := range []int{1, 7, 0, 30, 2} {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("r%d-%d", round, i)
			l.Add(k)
			whole.Add(k)
		}
		d := l.TakeDelta()
		if n == 0 {
			if d != nil {
				t.Fatalf("round %d: nothing added, but a delta of %d", round, d.Count())
			}
			continue
		}
		if d.Count() != n || d.encSize != len(d.AppendMarshal(nil)) {
			t.Fatalf("round %d: delta counts %d (cached size %d), want %d", round, d.Count(), d.encSize, n)
		}
		if round > 0 && d.Contains("r0-0") {
			t.Fatalf("round %d: delta re-sends a key of round 0", round)
		}
		if err := merged.Union(d); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(merged.AppendMarshal(nil), whole.AppendMarshal(nil)) {
		t.Fatal("the deltas do not add up to the filter they were cut from")
	}
	l.Add("pending")
	for i := 0; !l.Full(); i++ {
		l.Add(fmt.Sprintf("fill-%d", i))
	}
	full := l.TakeFull()
	if !full.Full() || !full.Covers(whole) || !full.Contains("pending") || full.encSize == 0 {
		t.Fatal("the full filter holds everything since the filter was last empty, pending delta included")
	}
	if l.Full() || l.TakeDelta() != nil {
		t.Fatal("a fill leaves the filter and its delta empty")
	}
}

// FuzzBloomUnion merges whatever two decodable filters a disk or a peer
// could hand the backend. A refused merge changes nothing; an accepted one
// contains both inputs, adds their counts, and encodes canonically at the
// size it reports.
func FuzzBloomUnion(f *testing.F) {
	cases := codecCases()
	for _, a := range cases {
		for _, name := range []string{"handful", "first-dense", "small-buffer", "tight-fpp"} {
			f.Add(a.AppendMarshal(nil), cases[name].AppendMarshal(nil))
		}
	}
	f.Add(enc(64, 7, 1<<62, 6, formSparse, 1), enc(64, 7, 1<<62, 6, formSparse, 2))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, errA := Unmarshal(da)
		b, errB := Unmarshal(db)
		if errA != nil || errB != nil {
			return
		}
		want := a.n + b.n
		if err := a.Union(b); err != nil {
			if err != ErrShape || !bytes.Equal(a.AppendMarshal(nil), da) {
				t.Fatalf("refused union: err %v, filter changed: %v", err, !bytes.Equal(a.AppendMarshal(nil), da))
			}
			return
		}
		orig, _ := Unmarshal(da)
		if !a.Covers(orig) || !a.Covers(b) || a.n != want || want < 0 {
			t.Fatalf("union covers inputs: %v %v, count %d want %d", a.Covers(orig), a.Covers(b), a.n, want)
		}
		if !bytes.Equal(b.AppendMarshal(nil), db) {
			t.Fatal("union changed its argument")
		}
		data := a.AppendMarshal(nil)
		if a.MarshaledSize() != len(data) {
			t.Fatalf("MarshaledSize = %d, encodes to %d", a.MarshaledSize(), len(data))
		}
		if g, err := Unmarshal(data); err != nil || !bytes.Equal(g.AppendMarshal(nil), data) {
			t.Fatalf("merged filter is not canonical: %v", err)
		}
	})
}
