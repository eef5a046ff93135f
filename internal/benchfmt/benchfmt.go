// Package benchfmt defines the machine-readable benchmark artifact schemas
// the repo's perf trajectory is tracked through. Three producers share it:
//
//   - cmd/mintexp writes BENCH_experiments.json (ExpArtifact,
//     "mint-bench-exp/v1"): per-experiment figure hashes plus per-topology
//     capture/query probes, optionally folding in the other two artifacts.
//   - cmd/mintbench -json writes BENCH_remote.json (RemoteBench,
//     "mint-bench-remote/v1"): the remote-transport microbenchmark.
//   - tools/benchbudget -json writes the allocation-budget gate's verdicts
//     (BudgetArtifact, "mint-bench-budget/v1").
//
// Every artifact carries a "schema" tag so CI consumers can dispatch without
// guessing, and ExpArtifact offers Sort (deterministic ordering) and
// Normalize (zero the wall-clock fields) so golden tests diff only the
// deterministic surface.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema tags. Bump the version suffix on any breaking field change.
const (
	ExpSchema    = "mint-bench-exp/v1"
	RemoteSchema = "mint-bench-remote/v1"
	BudgetSchema = "mint-bench-budget/v1"
)

// CaptureStats measures the capture hot path.
type CaptureStats struct {
	TracesPerSec float64 `json:"traces_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// QueryStats measures the remote query path (single lookup and the batched
// QueryMany(64) round-trip).
type QueryStats struct {
	SingleUS float64 `json:"single_us"`
	Many64US float64 `json:"many64_us"`
}

// MarkStats measures the MarkSampled fire-and-forget path.
type MarkStats struct {
	PerOpUS float64 `json:"per_op_us"`
}

// RemoteBench is the BENCH_remote.json artifact (cmd/mintbench -json): the
// networked deployment driven over a loopback mintd.
type RemoteBench struct {
	Schema         string       `json:"schema"`
	CapturedTraces int          `json:"captured_traces"`
	Capture        CaptureStats `json:"capture"`
	Query          QueryStats   `json:"query"`
	Mark           MarkStats    `json:"mark"`
}

// BudgetEntry is one benchmark's allocation verdict from the benchbudget
// gate.
type BudgetEntry struct {
	Name         string `json:"name"`
	AllocsPerOp  int64  `json:"allocs_per_op"`
	Budget       int64  `json:"budget"`
	WithinBudget bool   `json:"within_budget"`
}

// BudgetArtifact is the benchbudget -json output: every committed budget and
// what the bench run measured against it. Allocs/op are deterministic counts,
// so this artifact has no volatile fields.
type BudgetArtifact struct {
	Schema  string        `json:"schema"`
	Entries []BudgetEntry `json:"entries"`
}

// Sort orders entries by name for byte-stable output.
func (b *BudgetArtifact) Sort() {
	sort.Slice(b.Entries, func(i, j int) bool { return b.Entries[i].Name < b.Entries[j].Name })
}

// ExpRecord is one (experiment, topology) run: the deterministic figure
// fingerprint plus that topology's perf probe. The probe runs a fixed
// OnlineBoutique workload once per topology, so records sharing a topology
// share probe numbers — the pairing keeps every record self-describing.
type ExpRecord struct {
	ID           string `json:"id"`
	Topology     string `json:"topology"` // "inproc", "reopen", "remote", or "any" for non-cluster drivers
	Rows         int    `json:"rows"`
	VolatileCols []int  `json:"volatile_cols,omitempty"`
	StableHash   string `json:"stable_hash"` // SHA-256 of the volatile-masked render; equal across topologies

	WallSeconds      float64      `json:"wall_seconds"`
	Capture          CaptureStats `json:"capture"`
	CompressionRatio float64      `json:"compression_ratio"` // raw trace bytes / stored bytes
	QueryColdUS      float64      `json:"query_cold_us"`
	QueryWarmUS      float64      `json:"query_warm_us"`
}

// ExpArtifact is the BENCH_experiments.json artifact (cmd/mintexp -json).
// Budget and Remote fold the sibling artifacts into one trajectory file when
// mintexp is pointed at them.
type ExpArtifact struct {
	Schema        string          `json:"schema"`
	GeneratedUnix int64           `json:"generated_unix"`
	Experiments   []ExpRecord     `json:"experiments"`
	Budget        *BudgetArtifact `json:"budget,omitempty"`
	Remote        *RemoteBench    `json:"remote,omitempty"`
}

// Sort puts experiments in deterministic (id, topology) order and sorts any
// folded budget entries.
func (a *ExpArtifact) Sort() {
	sort.Slice(a.Experiments, func(i, j int) bool {
		if a.Experiments[i].ID != a.Experiments[j].ID {
			return a.Experiments[i].ID < a.Experiments[j].ID
		}
		return a.Experiments[i].Topology < a.Experiments[j].Topology
	})
	if a.Budget != nil {
		a.Budget.Sort()
	}
}

// Normalize zeroes every wall-clock-derived field (and the timestamp) so two
// artifacts from different machines compare equal on their deterministic
// surface: schema, experiment set, row counts, volatile-column sets, stable
// hashes, compression ratios, and budget verdicts.
func (a *ExpArtifact) Normalize() {
	a.GeneratedUnix = 0
	for i := range a.Experiments {
		r := &a.Experiments[i]
		r.WallSeconds = 0
		r.Capture = CaptureStats{}
		r.QueryColdUS = 0
		r.QueryWarmUS = 0
	}
	if a.Remote != nil {
		a.Remote.Capture = CaptureStats{}
		a.Remote.Query = QueryStats{}
		a.Remote.Mark = MarkStats{}
	}
}

// WriteFile marshals v as indented JSON with a trailing newline — the one
// encoding every BENCH_*.json artifact uses.
func WriteFile(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// ReadExp loads and schema-checks an ExpArtifact.
func ReadExp(path string) (*ExpArtifact, error) {
	var a ExpArtifact
	if err := readJSON(path, &a); err != nil {
		return nil, err
	}
	if a.Schema != ExpSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, a.Schema, ExpSchema)
	}
	return &a, nil
}

// ReadRemote loads and schema-checks a RemoteBench artifact.
func ReadRemote(path string) (*RemoteBench, error) {
	var r RemoteBench
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	if r.Schema != RemoteSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, RemoteSchema)
	}
	return &r, nil
}

// ReadBudget loads and schema-checks a BudgetArtifact.
func ReadBudget(path string) (*BudgetArtifact, error) {
	var b BudgetArtifact
	if err := readJSON(path, &b); err != nil {
		return nil, err
	}
	if b.Schema != BudgetSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, b.Schema, BudgetSchema)
	}
	return &b, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
