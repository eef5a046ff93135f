// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver is deterministic (seeded RNGs, virtual
// time) and takes the deployment topology to measure as a parameter, so the
// same figure regenerates against the in-process sharded engine, the durable
// engine reopened from disk, and the networked deployment — byte-identically
// (cmd/mintexp prints the renders and checks that equality; bench_test.go
// wraps the experiments in testing.B benchmarks; parity_test.go pins the
// topology equality and golden_test.go pins two renders against committed
// text).
package experiments

import (
	"sync"

	"repro/internal/backend"
	"repro/internal/baseline"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/mint"
)

// Result is a printable experiment artifact: a table of rows mirroring the
// paper's table or figure series. Cells holding wall-clock measurements are
// marked volatile (MarkVolatileCols) so RenderStable can mask them — the
// remaining cells are deterministic and byte-identical across topologies.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// volatileCols indexes columns whose cells are wall-clock measurements
	// (they vary run to run and topology to topology by construction).
	volatileCols map[int]bool
}

// MintFramework adapts a topology-shaped mint.Cluster to the
// baseline.Framework interface so experiments drive Mint and the baselines
// identically. Its lifecycle is capture → Seal → query: Seal ends the
// capture phase (on the reopen topology it closes the cluster and reopens
// the DataDir with a different shard count), and Close releases the
// deployment (loopback server, durable store).
type MintFramework struct {
	tp      *Topo // nil for a bare NewMintFramework wrapper
	cluster *mint.Cluster
	nodes   []string
	cfg     mint.Config // reopen topology: the DataDir config Seal reopens
	ids     []string

	srv        *rpc.Server   // remote topology: the loopback server...
	srvCluster *mint.Cluster // ...and the backend cluster it serves

	sealed     bool
	savedNet   int64  // meter bytes captured at Seal (the reopened cluster's meter starts at zero)
	savedEvict uint64 // agent evictions captured at Seal (agents do not survive a reopen)

	// flushEvery triggers the periodic pattern upload every n captures
	// (the paper's one-minute cadence mapped onto trace counts).
	flushEvery int
	count      int

	closeOnce sync.Once
}

// NewMintFramework wraps an existing cluster without topology management
// (Seal only flushes; Close only closes the cluster). flushEvery <= 0
// disables automatic periodic flushes (call Flush explicitly). Topology-
// sensitive experiments use Topo.NewMintFramework instead.
func NewMintFramework(c *mint.Cluster, flushEvery int) *MintFramework {
	return &MintFramework{cluster: c, flushEvery: flushEvery}
}

// Name implements baseline.Framework.
func (f *MintFramework) Name() string { return "Mint" }

// Warmup implements baseline.Framework.
func (f *MintFramework) Warmup(traces []*trace.Trace) { f.cluster.Warmup(traces) }

// Capture implements baseline.Framework. Capturing after Seal is a harness
// bug — the sealed deployment's agents are gone — and panics loudly rather
// than skewing a figure.
func (f *MintFramework) Capture(t *trace.Trace) {
	if f.sealed {
		panic("experiments: Capture after Seal on " + f.topoName() + " framework")
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

// Seal ends the capture phase: it flushes, snapshots the agent-side
// accounting (network meter, Params Buffer evictions), and on the reopen
// topology closes the cluster and reopens its DataDir with a different
// shard count — so everything read afterwards (queries, storage, pattern
// counts) comes from replayed on-disk state. Seal is idempotent; on the
// other topologies it is a flush plus a transport health check.
func (f *MintFramework) Seal() {
	if f.sealed {
		return
	}
	f.cluster.Flush()
	if err := f.cluster.Err(); err != nil {
		panic("experiments: " + f.topoName() + " framework unhealthy at Seal: " + err.Error())
	}
	f.sealed = true
	if f.tp == nil || f.tp.kind != TopoReopen {
		return
	}
	f.savedNet = f.cluster.NetworkBytes()
	f.savedEvict = f.liveEvictions()
	if err := f.cluster.Close(); err != nil {
		panic("experiments: close durable cluster: " + err.Error())
	}
	cfg := f.cfg
	cfg.Shards = reopenReopenShards
	reopened, err := mint.Open(f.nodes, cfg)
	if err != nil {
		panic("experiments: reopen from DataDir: " + err.Error())
	}
	f.cluster = reopened
}

// Close releases the framework's deployment: the cluster, and on the remote
// topology the loopback server and its backend. Safe to call more than once
// (Topo.Close also calls it for leaked frameworks).
func (f *MintFramework) Close() {
	f.closeOnce.Do(func() {
		f.cluster.Close()
		if f.srv != nil {
			f.srv.Close()
			f.srvCluster.Close()
		}
	})
}

// topoName names the framework's topology for diagnostics.
func (f *MintFramework) topoName() string {
	if f.tp == nil {
		return "bare"
	}
	return f.tp.kind.String()
}

// Query implements baseline.Framework.
func (f *MintFramework) Query(id string) backend.QueryResult { return f.cluster.Query(id) }

// NetworkBytes implements baseline.Framework. After a reopen Seal it answers
// the meter snapshot taken before the swap — the reopened cluster performed
// none of the capture traffic.
func (f *MintFramework) NetworkBytes() int64 {
	if f.sealed && f.tp != nil && f.tp.kind == TopoReopen {
		return f.savedNet
	}
	return f.cluster.NetworkBytes()
}

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
// After a reopen Seal it answers the snapshot taken before the swap (the
// writing agents do not survive the reopen).
func (f *MintFramework) Evictions() uint64 {
	if f.sealed && f.tp != nil && f.tp.kind == TopoReopen {
		return f.savedEvict
	}
	return f.liveEvictions()
}

func (f *MintFramework) liveEvictions() uint64 {
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

// Cluster exposes the wrapped cluster (the reopened one after a reopen
// Seal).
func (f *MintFramework) Cluster() *mint.Cluster { return f.cluster }

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

// closeMint closes every Mint framework in a mixed framework set, releasing
// loopback servers and durable stores as soon as an experiment iteration is
// done with them.
func closeMint(fws []baseline.Framework) {
	for _, fw := range fws {
		if m, ok := fw.(*MintFramework); ok {
			m.Close()
		}
	}
}
