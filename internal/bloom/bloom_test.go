package bloom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewDefault()
	keys := make([]string, 0, f.Capacity())
	for i := 0; i < f.Capacity(); i++ {
		k := fmt.Sprintf("trace-%d", i)
		keys = append(keys, k)
		f.Add(k)
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for %q — Bloom filters must never miss", k)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := New(256, 0.01)
	inserted := map[string]bool{}
	check := func(key string) bool {
		f.Add(key)
		inserted[key] = true
		for k := range inserted {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	f := NewDefault()
	for i := 0; i < f.Capacity(); i++ {
		f.Add(fmt.Sprintf("in-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains(fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 3*DefaultFPP {
		t.Fatalf("false positive rate %.4f far exceeds target %.2f", rate, DefaultFPP)
	}
}

func TestCapacityMatchesBufferAndFPP(t *testing.T) {
	// 4 KB at 1% FPP holds roughly 3.4k elements (m ln2² / ln(1/p)).
	f := NewDefault()
	if c := f.Capacity(); c < 3000 || c > 4000 {
		t.Fatalf("capacity = %d, want ≈3400", c)
	}
	small := New(512, 0.01)
	if small.Capacity() >= f.Capacity() {
		t.Fatal("smaller buffer must hold fewer elements")
	}
}

func TestFullAndReset(t *testing.T) {
	f := New(64, 0.01)
	for !f.Full() {
		f.Add(fmt.Sprintf("k%d", f.Count()))
	}
	if f.Count() != f.Capacity() {
		t.Fatalf("full at %d, capacity %d", f.Count(), f.Capacity())
	}
	f.Reset()
	if f.Count() != 0 || f.Full() {
		t.Fatal("reset must clear the filter")
	}
	if f.Contains("k0") {
		t.Fatal("reset filter must not contain old keys")
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	f := New(256, 0.01)
	f.Add("a")
	snap := f.Snapshot()
	f.Add("b")
	if !snap.Contains("a") {
		t.Fatal("snapshot lost existing key")
	}
	f.Reset()
	if !snap.Contains("a") {
		t.Fatal("snapshot must be unaffected by reset")
	}
	if snap.Count() != 1 {
		t.Fatalf("snapshot count = %d, want 1", snap.Count())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, c := range []struct {
		buf int
		fpp float64
	}{{0, 0.01}, {-1, 0.01}, {MaxBufferBytes + 1, 0.01}, {64, 0}, {64, 1}, {64, -0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %f) should panic", c.buf, c.fpp)
				}
			}()
			New(c.buf, c.fpp)
		}()
	}
}
