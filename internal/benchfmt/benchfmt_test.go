package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleArtifact() *ExpArtifact {
	return &ExpArtifact{
		Schema:        ExpSchema,
		GeneratedUnix: 1234,
		Experiments: []ExpRecord{
			{ID: "fig15", Topology: "reopen", Rows: 5, StableHash: "b", WallSeconds: 1.5,
				Capture: CaptureStats{TracesPerSec: 100, AllocsPerOp: 43}, QueryColdUS: 9, QueryWarmUS: 1},
			{ID: "fig11", Topology: "remote", Rows: 84, StableHash: "a", CompressionRatio: 26.5},
			{ID: "fig11", Topology: "inproc", Rows: 84, StableHash: "a"},
		},
		Budget: &BudgetArtifact{Schema: BudgetSchema, Entries: []BudgetEntry{
			{Name: "BenchmarkB", AllocsPerOp: 40, Budget: 45, WithinBudget: true},
			{Name: "BenchmarkA", AllocsPerOp: 99, Budget: 45},
		}},
		Remote: &RemoteBench{Schema: RemoteSchema, CapturedTraces: 4000,
			Capture: CaptureStats{TracesPerSec: 9000}},
	}
}

func TestSortIsDeterministic(t *testing.T) {
	a := sampleArtifact()
	a.Sort()
	order := make([]string, len(a.Experiments))
	for i, r := range a.Experiments {
		order[i] = r.ID + "/" + r.Topology
	}
	want := []string{"fig11/inproc", "fig11/remote", "fig15/reopen"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if a.Budget.Entries[0].Name != "BenchmarkA" {
		t.Fatal("folded budget entries must sort by name")
	}
}

func TestNormalizeZeroesOnlyVolatileFields(t *testing.T) {
	a := sampleArtifact()
	a.Normalize()
	if a.GeneratedUnix != 0 {
		t.Fatal("timestamp must be zeroed")
	}
	for _, r := range a.Experiments {
		if r.WallSeconds != 0 || r.Capture != (CaptureStats{}) || r.QueryColdUS != 0 || r.QueryWarmUS != 0 {
			t.Fatalf("volatile fields survive in %+v", r)
		}
	}
	if a.Remote.Capture != (CaptureStats{}) {
		t.Fatal("folded remote timings must be zeroed")
	}
	// Deterministic fields survive.
	if a.Experiments[0].Rows != 5 || a.Experiments[0].StableHash != "b" ||
		a.Experiments[1].CompressionRatio != 26.5 ||
		a.Budget.Entries[0].AllocsPerOp != 40 {
		t.Fatal("Normalize clobbered deterministic fields")
	}
}

func TestReadSchemaChecks(t *testing.T) {
	dir := t.TempDir()
	expPath := filepath.Join(dir, "exp.json")
	if err := WriteFile(expPath, sampleArtifact()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadExp(expPath); err != nil {
		t.Fatalf("ReadExp: %v", err)
	}
	// Each reader rejects a sibling schema.
	if _, err := ReadBudget(expPath); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("ReadBudget must reject %s, got %v", ExpSchema, err)
	}
	if _, err := ReadRemote(expPath); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("ReadRemote must reject %s, got %v", ExpSchema, err)
	}

	budgetPath := filepath.Join(dir, "budget.json")
	if err := WriteFile(budgetPath, &BudgetArtifact{Schema: BudgetSchema}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBudget(budgetPath); err != nil {
		t.Fatalf("ReadBudget: %v", err)
	}
	remotePath := filepath.Join(dir, "remote.json")
	if err := WriteFile(remotePath, &RemoteBench{Schema: RemoteSchema}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRemote(remotePath); err != nil {
		t.Fatalf("ReadRemote: %v", err)
	}
	if _, err := ReadExp(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}
