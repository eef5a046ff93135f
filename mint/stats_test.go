package mint_test

// Cluster.Stats is the one-call snapshot of a cluster's byte accounting and
// pattern state. These tests pin its consistency contract: it agrees with
// the single-field accessors, it is identical between an in-process cluster
// and a loopback-remote one driven with the same workload, a remote Stats is
// one round trip, and the backend-derived fields survive a DataDir reopen.
// Every parity oracle rig (oracle_test.go) also checks Stats against its
// reference store.

import (
	"testing"

	"repro/internal/sim"
	"repro/mint"
)

func captureInto(t *testing.T, c *mint.Cluster, sys *sim.System, n int) {
	t.Helper()
	c.Warmup(sim.GenTraces(sys, 100))
	for _, tr := range sim.GenTraces(sys, n) {
		if err := c.Capture(tr); err != nil {
			t.Fatalf("capture: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestStatsMatchesAccessors(t *testing.T) {
	sys := sim.OnlineBoutique(71)
	cluster := mint.NewCluster(sys.Nodes, mint.Config{Shards: 3, BloomBufferBytes: 512})
	defer cluster.Close()
	captureInto(t, cluster, sys, 300)

	s := cluster.Stats()
	if s.NetworkBytes != cluster.NetworkBytes() {
		t.Fatalf("NetworkBytes %d != %d", s.NetworkBytes, cluster.NetworkBytes())
	}
	if s.StorageBytes != cluster.StorageBytes() {
		t.Fatalf("StorageBytes %d != %d", s.StorageBytes, cluster.StorageBytes())
	}
	p, b, pa := cluster.StorageBreakdown()
	if s.PatternBytes != p || s.BloomBytes != b || s.ParamBytes != pa {
		t.Fatalf("breakdown (%d,%d,%d) != (%d,%d,%d)", s.PatternBytes, s.BloomBytes, s.ParamBytes, p, b, pa)
	}
	if s.StorageBytes != s.PatternBytes+s.BloomBytes+s.ParamBytes {
		t.Fatalf("breakdown does not sum: %d != %d+%d+%d", s.StorageBytes, s.PatternBytes, s.BloomBytes, s.ParamBytes)
	}
	if s.SpanPatterns != cluster.SpanPatternCount() || s.TopoPatterns != cluster.TopoPatternCount() {
		t.Fatal("pattern counts disagree")
	}
	if s.Shards != 3 || s.Nodes != len(sys.Nodes) {
		t.Fatalf("shape: shards=%d nodes=%d", s.Shards, s.Nodes)
	}
	var evict uint64
	for _, node := range cluster.Nodes() {
		evict += cluster.AgentEvictions(node)
	}
	if s.Evictions != evict {
		t.Fatalf("evictions %d != %d", s.Evictions, evict)
	}
}

func TestStatsRemoteParity(t *testing.T) {
	sys := sim.OnlineBoutique(72)
	inproc := mint.NewCluster(sys.Nodes, mint.Config{Shards: 4, BloomBufferBytes: 512})
	defer inproc.Close()

	md := startMintd(t, t.TempDir(), 4)
	defer md.stop(t)
	remote, err := mint.Dial(md.addr, sys.Nodes, mint.Config{BloomBufferBytes: 512})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer remote.Close()

	captureInto(t, inproc, sys, 300)
	sys2 := sim.OnlineBoutique(72) // same seed: identical traffic
	captureInto(t, remote, sys2, 300)

	a, b := inproc.Stats(), remote.Stats()
	// The byte-accounting and pattern fields must be deployment-independent.
	if a.NetworkBytes != b.NetworkBytes || a.StorageBytes != b.StorageBytes ||
		a.PatternBytes != b.PatternBytes || a.BloomBytes != b.BloomBytes ||
		a.ParamBytes != b.ParamBytes ||
		a.SpanPatterns != b.SpanPatterns || a.TopoPatterns != b.TopoPatterns ||
		a.Evictions != b.Evictions {
		t.Fatalf("stats diverge across the wire:\ninproc %+v\nremote %+v", a, b)
	}
}

// A remote Stats is one stats round trip, so every backend field comes from
// one server-side read that no concurrent write can split.
func TestStatsRemoteIsOneRoundTrip(t *testing.T) {
	sys := sim.OnlineBoutique(75)
	md := startMintd(t, t.TempDir(), 2)
	defer md.stop(t)
	remote, err := mint.Dial(md.addr, sys.Nodes, mint.Config{BloomBufferBytes: 512})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer remote.Close()
	captureInto(t, remote, sys, 50)

	before := md.srv.Requests()
	s := remote.Stats()
	if got := md.srv.Requests() - before; got != 1 {
		t.Fatalf("Stats took %d requests, want 1", got)
	}
	if s.StorageBytes == 0 || s.SpanPatterns == 0 || s.Shards != 2 {
		t.Fatalf("remote stats: %+v", s)
	}
}

func TestStatsSurviveReopen(t *testing.T) {
	sys := sim.OnlineBoutique(73)
	dir := t.TempDir()
	cluster, err := mint.Open(sys.Nodes, mint.Config{Shards: 2, DataDir: dir, BloomBufferBytes: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	captureInto(t, cluster, sys, 300)
	before := cluster.Stats()
	if err := cluster.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reopened, err := mint.Open(sys.Nodes, mint.Config{Shards: 3, DataDir: dir, BloomBufferBytes: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	after := reopened.Stats()
	if after.StorageBytes != before.StorageBytes ||
		after.PatternBytes != before.PatternBytes ||
		after.BloomBytes != before.BloomBytes ||
		after.ParamBytes != before.ParamBytes ||
		after.SpanPatterns != before.SpanPatterns ||
		after.TopoPatterns != before.TopoPatterns {
		t.Fatalf("backend stats lost in replay:\nbefore %+v\nafter  %+v", before, after)
	}
	if after.Shards != 3 {
		t.Fatalf("reopened shards = %d, want 3", after.Shards)
	}
	// The meter and agents are fresh in the reopened cluster.
	if after.NetworkBytes != 0 {
		t.Fatalf("reopened meter should start at zero, got %d", after.NetworkBytes)
	}
}

func TestStatsClosedCluster(t *testing.T) {
	sys := sim.OnlineBoutique(74)
	cluster := mint.NewCluster(sys.Nodes, mint.Config{BloomBufferBytes: 512})
	captureInto(t, cluster, sys, 100)
	net := cluster.NetworkBytes()
	cluster.Close()
	s := cluster.Stats()
	if s.StorageBytes != 0 || s.Shards != 0 || s.SpanPatterns != 0 {
		t.Fatalf("closed cluster must zero backend fields: %+v", s)
	}
	if s.NetworkBytes != net {
		t.Fatalf("client-side meter should still answer after Close: %d != %d", s.NetworkBytes, net)
	}
}
