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
// decode); the meter, the batch envelope and the storage accounting then
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
