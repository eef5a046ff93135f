package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/sim"
	"repro/mint"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("registry lists %d experiments, want 16 (every paper table and figure plus 3 ablations)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("lookup should miss unknown IDs")
	}
	if len(IDs()) != 16 {
		t.Fatal("IDs()")
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{
		ID: "x", Title: "demo",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}, {"bbbb", "22"}},
		Notes:  []string{"a note"},
	}
	out := r.Render()
	for _, want := range []string{"demo", "col", "bbbb", "a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderStableMasksVolatileCols(t *testing.T) {
	r := &Result{
		ID: "x", Title: "demo",
		Header: []string{"metric", "det", "wallclock"},
		Rows:   [][]string{{"a", "1", "3.14"}, {"b", "2", "2.71"}},
	}
	plain := r.RenderStable()
	r.MarkVolatileCols(2, 2) // marking a column twice masks it once
	stable := r.RenderStable()
	if strings.Contains(stable, "3.14") || strings.Contains(stable, "2.71") {
		t.Fatalf("stable render leaks volatile cells:\n%s", stable)
	}
	// Exactly the marked column is masked, in every row, and the
	// deterministic cells keep their place in the table.
	lines := strings.Split(stable, "\n")
	for i, want := range [][]string{{"a", "1", volatileMask}, {"b", "2", volatileMask}} {
		if got := strings.Fields(lines[3+i]); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("row %d renders as %q, want %q:\n%s", i, got, want, stable)
		}
	}
	// Masking only changes the stable render, and only after marking: the
	// plain render is untouched, and the same rows render the same way twice.
	if plain != r.Render() || !strings.Contains(r.Render(), "3.14") {
		t.Fatal("masking must not rewrite Render() or a stable render taken before marking")
	}
	if stable != r.RenderStable() {
		t.Fatal("the stable render must be deterministic")
	}
}

func TestMintFrameworkAdapter(t *testing.T) {
	sys := sim.OnlineBoutique(55)
	fw := newMint(sys.Nodes, mint.Config{BloomBufferBytes: 512})
	fw.Warmup(sim.GenTraces(sys, 100))
	traffic := sim.GenTraces(sys, 200)
	for _, tr := range traffic {
		fw.Capture(tr)
	}
	fw.Seal()
	if fw.Name() != "Mint" {
		t.Fatal("name")
	}
	if fw.NetworkBytes() <= 0 || fw.StorageBytes() <= 0 {
		t.Fatal("byte accounting")
	}
	retained := fw.Retained()
	if len(retained) != len(traffic) {
		t.Fatalf("Mint must retain (at least approximately) every trace: %d of %d",
			len(retained), len(traffic))
	}
	if fw.Query(traffic[0].TraceID).Kind == backend.Miss {
		t.Fatal("no captured trace may miss")
	}
}

func TestMintFrameworkPeriodicFlush(t *testing.T) {
	sys := sim.OnlineBoutique(56)
	fw := NewMintFramework(mint.NewCluster(sys.Nodes, mint.Config{BloomBufferBytes: 512}), 50)
	defer fw.Close()
	for _, tr := range sim.GenTraces(sys, 120) {
		fw.Capture(tr)
	}
	// Two automatic flushes should have happened; queries already work.
	if fw.Query("ob-t00000001").Kind == backend.Miss {
		t.Fatal("periodic flush should publish bloom filters")
	}
}

func TestCaptureAfterSealPanics(t *testing.T) {
	sys := sim.OnlineBoutique(58)
	fw := newMint(sys.Nodes, mint.Config{BloomBufferBytes: 512})
	traffic := sim.GenTraces(sys, 5)
	for _, tr := range traffic[:4] {
		fw.Capture(tr)
	}
	fw.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("Capture after Seal must panic")
		}
	}()
	fw.Capture(traffic[4])
}

func TestFig01Fig02Fig13Light(t *testing.T) {
	for _, run := range []func() *Result{Fig01DailyVolume, Fig02ServiceOverhead, Fig13DatasetInfo} {
		res := run()
		if len(res.Rows) == 0 {
			t.Fatalf("%s produced no rows", res.ID)
		}
	}
}

func TestFig16SensitivityMonotonicTendency(t *testing.T) {
	res := Fig16Sensitivity()
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's Fig. 16: total storage shrinks as the threshold rises.
	// Individual corpora wobble a little, so assert the aggregate trend.
	var low, high float64
	for _, row := range res.Rows {
		l, err1 := strconv.ParseFloat(row[1], 64)
		h, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		low += l
		high += h
	}
	if high >= low {
		t.Fatalf("aggregate size at threshold 0.8 (%.3f) should undercut 0.2 (%.3f)", high, low)
	}
}
