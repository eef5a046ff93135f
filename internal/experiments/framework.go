// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver is deterministic (seeded RNGs, virtual
// time) and runs its Mint deployments in-process, on a sharded cluster
// (cmd/mintexp prints the renders; bench_test.go wraps the experiments in
// testing.B benchmarks; golden_test.go pins two renders against committed
// text). That a figure does not depend on the deployment shape follows from
// the parity oracle (mint/oracle_test.go), which holds every shape to the
// same answers.
package experiments

import (
	"repro/internal/backend"
	"repro/internal/baseline"
	"repro/internal/trace"
	"repro/mint"
)

// Result is a printable experiment artifact: a table of rows mirroring the
// paper's table or figure series. Cells holding wall-clock measurements are
// marked volatile (MarkVolatileCols) so RenderStable can mask them — the
// remaining cells are deterministic and byte-identical run over run.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// volatileCols indexes columns whose cells are wall-clock measurements
	// (they vary run to run by construction).
	volatileCols map[int]bool
}

// MintFramework adapts a mint.Cluster to the baseline.Framework interface
// so experiments drive Mint and the baselines identically. Its lifecycle is
// capture → Seal → query: Seal ends the capture phase, and Close releases
// the cluster.
type MintFramework struct {
	cluster *mint.Cluster
	ids     []string
	sealed  bool

	// flushEvery triggers the periodic pattern upload every n captures
	// (the paper's one-minute cadence mapped onto trace counts).
	flushEvery int
	count      int
}

// figureShards is the backend shard count of every figure's cluster.
const figureShards = 4

// newMint builds the Mint framework a figure measures: an in-process
// cluster of figureShards shards with the figure's agent-side knobs.
func newMint(nodes []string, cfg mint.Config) *MintFramework {
	cfg.Shards = figureShards
	return NewMintFramework(mint.NewCluster(nodes, cfg), 0)
}

// NewMintFramework wraps an existing cluster. flushEvery <= 0 disables
// automatic periodic flushes (call Flush explicitly).
func NewMintFramework(c *mint.Cluster, flushEvery int) *MintFramework {
	return &MintFramework{cluster: c, flushEvery: flushEvery}
}

// Name implements baseline.Framework.
func (f *MintFramework) Name() string { return "Mint" }

// Warmup implements baseline.Framework.
func (f *MintFramework) Warmup(traces []*trace.Trace) { f.cluster.Warmup(traces) }

// Capture implements baseline.Framework. Capturing after Seal is a harness
// bug and panics loudly rather than skewing a figure.
func (f *MintFramework) Capture(t *trace.Trace) {
	if f.sealed {
		panic("experiments: Capture after Seal")
	}
	f.cluster.Capture(t)
	f.ids = append(f.ids, t.TraceID)
	f.count++
	if f.flushEvery > 0 && f.count%f.flushEvery == 0 {
		f.cluster.Flush()
	}
}

// Flush implements baseline.Framework.
func (f *MintFramework) Flush() { f.cluster.Flush() }

// Seal ends the capture phase: it flushes and checks the cluster's health.
// Seal is idempotent.
func (f *MintFramework) Seal() {
	if f.sealed {
		return
	}
	f.cluster.Flush()
	if err := f.cluster.Err(); err != nil {
		panic("experiments: framework unhealthy at Seal: " + err.Error())
	}
	f.sealed = true
}

// Close releases the cluster. Safe to call more than once.
func (f *MintFramework) Close() { f.cluster.Close() }

// Query implements baseline.Framework.
func (f *MintFramework) Query(id string) backend.QueryResult { return f.cluster.Query(id) }

// NetworkBytes implements baseline.Framework.
func (f *MintFramework) NetworkBytes() int64 { return f.cluster.NetworkBytes() }

// StorageBytes implements baseline.Framework.
func (f *MintFramework) StorageBytes() int64 { return f.cluster.StorageBytes() }

// StorageBreakdown splits the backend's storage into pattern, Bloom and
// parameter bytes.
func (f *MintFramework) StorageBreakdown() (patterns, blooms, params int64) {
	return f.cluster.StorageBreakdown()
}

// SpanPatternCount returns the backend's distinct span pattern count.
func (f *MintFramework) SpanPatternCount() int { return f.cluster.SpanPatternCount() }

// Evictions sums the Params Buffer evictions across the framework's agents.
func (f *MintFramework) Evictions() uint64 {
	var total uint64
	for _, node := range f.cluster.Nodes() {
		total += f.cluster.AgentEvictions(node)
	}
	return total
}

// Retained implements baseline.Framework: Mint can reconstruct every
// captured trace — exactly when sampled, approximately otherwise.
func (f *MintFramework) Retained() []*trace.Trace {
	out := make([]*trace.Trace, 0, len(f.ids))
	for _, id := range f.ids {
		res := f.cluster.Query(id)
		if res.Kind != backend.Miss && res.Trace != nil {
			out = append(out, res.Trace)
		}
	}
	return out
}

var _ baseline.Framework = (*MintFramework)(nil)

// sealMint seals every Mint framework in a mixed framework set (baselines
// have no deployment to seal).
func sealMint(fws []baseline.Framework) {
	for _, fw := range fws {
		if m, ok := fw.(*MintFramework); ok {
			m.Seal()
		}
	}
}
