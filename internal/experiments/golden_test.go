package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Regenerate with: go test ./internal/experiments -run TestGoldenStableRender -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestGoldenStableRender pins two figures' stable renders byte-for-byte
// against committed text: fig13 (an experiment that never touches a cluster)
// and abl-hap (a cluster experiment). This is the check that a figure still
// regenerates the same numbers run over run. A failing diff
// means either an intended figure change (regenerate with -update-golden,
// review the diff) or a determinism regression (investigate before touching
// the golden).
func TestGoldenStableRender(t *testing.T) {
	var got string
	for _, id := range []string{"fig13", "abl-hap"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("golden subset lists unknown experiment %s", id)
		}
		got += e.Run().RenderStable()
	}

	goldenPath := filepath.Join("testdata", "stable_render.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		t.Fatalf("stable renders drifted from golden (regenerate with -update-golden if intended)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
