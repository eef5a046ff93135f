package mint_test

// The networked deployment at the public-API level. The same workload
// driven through an in-process cluster and through a mintd-shaped loopback
// server plus remote agents dialed over TCP must answer every read path
// byte-identically, including after the server restarts from its DataDir.
// Also: one dialed cluster shared by many goroutines, config ownership, and
// the closed and dead-server contracts. The parity oracle's remote rows
// (oracle_test.go) run the same checks over seeded histories. Run with
// -race: the transport multiplexes collectors, ingest workers and query
// goroutines onto one connection.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/mint"
)

// mintdShaped is what cmd/mintd assembles: a durable backend hosted behind
// the RPC server, with no local agents (they live on the client side of the
// wire).
type mintdShaped struct {
	cluster *mint.Cluster
	srv     *rpc.Server
	addr    string
}

func startMintd(t *testing.T, dir string, shards int) *mintdShaped {
	t.Helper()
	cluster, err := mint.Open(nil, mint.Config{Shards: shards, DataDir: dir})
	if err != nil {
		t.Fatalf("open server backend: %v", err)
	}
	srv := rpc.NewServer(cluster.Backend())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return &mintdShaped{cluster: cluster, srv: srv, addr: addr.String()}
}

// stop shuts the server down mintd-style: stop the listener, then close the
// cluster (flushing the WAL durable).
func (m *mintdShaped) stop(t *testing.T) {
	t.Helper()
	m.srv.Close()
	if err := m.cluster.Close(); err != nil {
		t.Fatalf("close server backend: %v", err)
	}
}

func TestLoopbackParityWithRestart(t *testing.T) {
	dir := t.TempDir()
	sys := sim.OnlineBoutique(33)
	warm := sim.GenTraces(sys, 200)
	traces := sim.GenTraces(sys, 500)
	ids := traceIDs(traces)

	// The in-process reference: agents + sharded backend in one process.
	inproc := mint.NewCluster(sys.Nodes, mint.Config{Shards: 4})
	defer inproc.Close()

	// The networked deployment: the same agents, but dialed into a
	// mintd-shaped loopback server holding the (durable) backend.
	server := startMintd(t, dir, 4)
	remote, err := mint.Dial(server.addr, sys.Nodes, mint.Defaults())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	// Identical serial workload through both. The full samplers are on:
	// serial capture order makes their streaming decisions deterministic,
	// so they must agree across deployments.
	for _, cl := range []*mint.Cluster{inproc, remote} {
		cl.Warmup(warm)
		for _, tr := range traces {
			if err := cl.Capture(tr); err != nil {
				t.Fatalf("Capture: %v", err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}

	// The byte meters must agree exactly: the remote transport carries the
	// same reports the in-process meter accounts.
	if w, g := inproc.NetworkBytes(), remote.NetworkBytes(); w != g {
		t.Fatalf("metered network bytes diverged: in-process %d, remote %d", w, g)
	}
	assertSameAnswers(t, "live", inproc, remote, ids)

	// Concurrent remote reads (for -race): many goroutines share the one
	// connection while stats round-trips interleave.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				remote.Query(ids[(i*13+r)%len(ids)])
			}
			remote.QueryMany(ids[:40])
			remote.FindTraces(mint.Filter{ErrorsOnly: true, Candidates: ids[:100]})
			remote.StorageBytes()
		}(r)
	}
	wg.Wait()
	if err := remote.Err(); err != nil {
		t.Fatalf("concurrent remote reads: %v", err)
	}

	// Restart: close the remote handle (flushes the server's WAL over the
	// wire), stop the server, bring a fresh one up from the same DataDir at
	// another shard count, dial again — durability must be preserved over
	// the wire.
	if err := remote.Close(); err != nil {
		t.Fatalf("remote Close: %v", err)
	}
	server.stop(t)
	server2 := startMintd(t, dir, 2)
	defer server2.stop(t)
	remote2, err := mint.Dial(server2.addr, sys.Nodes, mint.Defaults())
	if err != nil {
		t.Fatalf("re-Dial: %v", err)
	}
	defer remote2.Close()
	assertSameAnswers(t, "after restart", inproc, remote2, ids)
}

// TestLoopbackParityConcurrentIngest drives the full concurrent pipeline —
// ingest worker pool — through the network
// transport under -race. Samplers are replaced by deterministic hash-based
// head sampling so decisions are interleaving-independent, and a fixed
// subset is marked sampled explicitly.
func TestLoopbackParityConcurrentIngest(t *testing.T) {
	sys := sim.OnlineBoutique(77)
	warm := sim.GenTraces(sys, 150)
	traces := sim.GenTraces(sys, 400)
	cfg := mint.Config{DisableSamplers: true, HeadSampleRate: 0.1, IngestWorkers: 4}

	inprocCfg := cfg
	inprocCfg.Shards = 4
	inproc := mint.NewCluster(sys.Nodes, inprocCfg)
	defer inproc.Close()

	server := startMintd(t, t.TempDir(), 4)
	defer server.stop(t)
	remote, err := mint.Dial(server.addr, sys.Nodes, cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()

	for _, cl := range []*mint.Cluster{inproc, remote} {
		cl.Warmup(warm)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(traces); i += 4 {
					if err := cl.CaptureAsync(traces[i]); err != nil {
						t.Errorf("CaptureAsync: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := cl.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		markEveryTenth(cl, traces)
		if err := cl.Flush(); err != nil {
			t.Fatalf("second Flush: %v", err)
		}
	}
	assertSameAnswers(t, "concurrent ingest", inproc, remote, traceIDs(traces))
}

// TestSharedRemoteClusterConcurrentMixed shares one dialed Cluster between
// many goroutines that interleave captures, sampling marks and every kind
// of query — the workload shape the multiplexed transport exists for: all
// of it pipelines over the one connection concurrently. Run with
// -race. Sampling is hash-based head sampling plus explicit marks so
// decisions are interleaving-independent, and the final state must be
// byte-identical to a serial in-process run of the same workload.
func TestSharedRemoteClusterConcurrentMixed(t *testing.T) {
	sys := sim.OnlineBoutique(55)
	warm := sim.GenTraces(sys, 150)
	traces := sim.GenTraces(sys, 400)
	ids := make([]string, len(traces))
	for i, tr := range traces {
		ids[i] = tr.TraceID
	}
	cfg := mint.Config{DisableSamplers: true, HeadSampleRate: 0.15}

	// Serial in-process reference: capture each trace, marking every tenth
	// right after its capture.
	inprocCfg := cfg
	inprocCfg.Shards = 4
	inproc := mint.NewCluster(sys.Nodes, inprocCfg)
	defer inproc.Close()
	inproc.Warmup(warm)
	for i, tr := range traces {
		if err := inproc.Capture(tr); err != nil {
			t.Fatalf("in-process Capture: %v", err)
		}
		if i%10 == 0 {
			inproc.MarkSampled(tr.TraceID, "parity-test")
		}
	}
	if err := inproc.Flush(); err != nil {
		t.Fatalf("in-process Flush: %v", err)
	}

	server := startMintd(t, t.TempDir(), 4)
	defer server.stop(t)
	remote, err := mint.Dial(server.addr, sys.Nodes, cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer remote.Close()
	remote.Warmup(warm)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(traces); i += workers {
				if err := remote.Capture(traces[i]); err != nil {
					t.Errorf("remote Capture: %v", err)
					return
				}
				if i%10 == 0 {
					remote.MarkSampled(traces[i].TraceID, "parity-test")
				}
				// Interleave reads with the writes: queries pipeline on the
				// same connection the marks and reports ride.
				switch {
				case i%31 == 0:
					remote.QueryMany(ids[:20])
				case i%13 == 0:
					remote.BatchAnalyze(ids[:64])
				case i%7 == 0:
					remote.Query(ids[(i*3+w)%len(ids)])
				}
			}
		}(w)
	}
	wg.Wait()
	if err := remote.Flush(); err != nil {
		t.Fatalf("remote Flush: %v", err)
	}

	assertSameAnswers(t, "shared remote cluster", inproc, remote, ids)
}

// TestDialRejectsServerSideConfig pins the config ownership rule: backend
// deployment knobs belong to mintd, not to the dialing client.
func TestDialRejectsServerSideConfig(t *testing.T) {
	for _, cfg := range []mint.Config{
		{Shards: 4},
		{DataDir: "/tmp/x"},
		{QueryCacheSize: 10},
	} {
		if _, err := mint.Dial("127.0.0.1:1", []string{"n1"}, cfg); err == nil {
			t.Fatalf("Dial with server-side config %+v succeeded", cfg)
		}
	}
}

// TestRemoteClosedAndTransportErrors: the closed-cluster contract holds for
// remote clusters, and a dead server surfaces through Err instead of
// panicking or hanging.
func TestRemoteClosedAndTransportErrors(t *testing.T) {
	sys := sim.OnlineBoutique(3)
	server := startMintd(t, t.TempDir(), 1)
	remote, err := mint.Dial(server.addr, sys.Nodes, mint.Defaults())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	traces := sim.GenTraces(sys, 20)
	for _, tr := range traces {
		if err := remote.Capture(tr); err != nil {
			t.Fatalf("Capture: %v", err)
		}
	}
	if err := remote.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if res := remote.Query(traces[0].TraceID); res.Kind == mint.Miss {
		t.Fatal("remote query missed a captured trace")
	}

	// Kill the server out from under the client: reads go empty, Err
	// reports the transport failure, nothing panics.
	server.srv.Close()
	server.cluster.Close()
	fmt.Println() // keep the test output tidy under -v
	remote.Query(traces[0].TraceID)
	if err := remote.Err(); err == nil {
		t.Fatal("transport failure did not surface through Err")
	}
	if err := remote.Capture(traces[0]); err != nil {
		// Capture itself stays error-free (the report sink swallows sends
		// on a dead transport); only Close/Flush/Err report it.
		t.Fatalf("Capture after server death: %v", err)
	}
	remote.Close()
	if err := remote.Capture(traces[0]); err == nil {
		t.Fatal("Capture after Close did not fail")
	}
}
