package mint_test

// Chaos parity: the acceptance bar for the fault-tolerant transport. A
// client driven through a fault-injection proxy under an aggressive
// schedule — connection resets, frames torn mid-payload, refused redials,
// periodic full partitions — must converge, once the schedule calms, to a
// state byte-identical to a fault-free in-process run of the same workload:
// no lost ingest (the client journal replays), no double-applied ingest
// (the server dedup window absorbs replays of already-applied envelopes).
// Run with -race: redials, journal replay and the fault schedule all race
// the capture path.

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/mint"
)

// chaosTimers shortens the client's redial/flush machinery so the fault
// window exercises many redial cycles, while leaving the retry deadline
// generous enough that post-calm convergence never races it.
func chaosTimers(t *testing.T) {
	t.Helper()
	restore := rpc.SetTimersForTest(rpc.TestTimers{
		Flush:         5 * time.Millisecond,
		RetryDeadline: 20 * time.Second,
		RedialBase:    5 * time.Millisecond,
		RedialMax:     50 * time.Millisecond,
		RedialDial:    500 * time.Millisecond,
		RedialTick:    2 * time.Millisecond,
	})
	t.Cleanup(restore)
}

func TestChaosProxyParity(t *testing.T) {
	chaosTimers(t)
	sys := sim.OnlineBoutique(91)
	warm := sim.GenTraces(sys, 150)
	traces := sim.GenTraces(sys, 400)
	ids := make([]string, len(traces))
	for i, tr := range traces {
		ids[i] = tr.TraceID
	}
	// Concurrent-parity discipline: deterministic hash-based head sampling
	// plus explicit marks, so sampling decisions cannot depend on the
	// timing perturbations the fault schedule injects.
	cfg := mint.Config{DisableSamplers: true, HeadSampleRate: 0.15}

	// Fault-free serial reference.
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
			inproc.MarkSampled(tr.TraceID, "chaos-parity")
		}
	}
	if err := inproc.Flush(); err != nil {
		t.Fatalf("in-process Flush: %v", err)
	}

	// The same workload, dialed through the chaos proxy. The schedule is
	// aggressive on the connection level (a quarter of redials refused,
	// partitions sweeping all live connections every 120ms) and moderate on
	// the byte level, so traffic flows — brokenly — throughout.
	server := startMintd(t, t.TempDir(), 4)
	defer server.stop(t)
	px, err := chaos.New(server.addr, chaos.Config{
		Seed:           20250807,
		ResetProb:      0.01,
		TruncateProb:   0.02,
		DelayProb:      0.05,
		MaxDelay:       2 * time.Millisecond,
		RefuseProb:     0.25,
		PartitionEvery: 120 * time.Millisecond,
		PartitionFor:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	defer px.Close()

	// The initial Dial is deliberately fail-fast (no connection, no journal
	// yet), so under a schedule refusing a quarter of connections it can lose
	// the roll; retry it the way an operator's supervisor would.
	var remote *mint.Cluster
	for attempt := 0; ; attempt++ {
		remote, err = mint.Dial(px.Addr(), sys.Nodes, cfg)
		if err == nil {
			break
		}
		if attempt >= 30 {
			t.Fatalf("Dial through proxy never succeeded: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer remote.Close()
	remote.Warmup(warm)

	// Drive captures and marks through the storm. Captures are local agent
	// work plus fire-and-forget report envelopes, so faults never surface
	// here — they surface as journal growth and redials. Pace the drive so
	// it spans several partition windows.
	for i, tr := range traces {
		if err := remote.Capture(tr); err != nil {
			t.Fatalf("remote Capture under chaos: %v", err)
		}
		if i%10 == 0 {
			remote.MarkSampled(tr.TraceID, "chaos-parity")
		}
		if i%4 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	// Let the journal fight the schedule for a few more partition windows:
	// replay under fire is the interesting phase.
	time.Sleep(500 * time.Millisecond)

	// Calm the proxy and converge. Flush is the barrier: it drains the
	// client journal through (now faithful) redialed connections.
	px.Calm()
	if err := remote.Flush(); err != nil {
		t.Fatalf("Flush after calm: %v", err)
	}

	// The schedule must actually have been aggressive: redials happened
	// (more than the one initial accept), connections were refused and
	// reset, and the combined fault count covers well over 20% of the
	// connection-level traffic.
	accepted, refused, resets, truncs := px.Accepted(), px.Refused(), px.Resets(), px.Truncations()
	t.Logf("chaos: accepted=%d refused=%d resets=%d truncations=%d delays=%d; server shed=%d dedup=%d",
		accepted, refused, resets, truncs, px.Delays(), server.srv.Shed(), server.srv.DedupHits())
	if accepted <= 1 {
		t.Fatalf("no redial reached the proxy: accepted=%d", accepted)
	}
	if refused == 0 || resets == 0 {
		t.Fatalf("fault schedule injected too little: refused=%d resets=%d", refused, resets)
	}
	if faults := refused + resets + truncs; faults*5 < accepted {
		t.Fatalf("fault coverage below 20%%: %d faults over %d connections", faults, accepted)
	}

	// The acceptance bar: every read path byte-identical to the fault-free
	// run (no loss, no double-apply), and no sticky transport error.
	assertRemoteParity(t, "chaos", inproc, remote, ids)

	// Ingest-side counters must agree too: the pattern stores saw each
	// envelope exactly once despite replays.
	wb, rb := inproc.Backend(), server.cluster.Backend()
	if w, g := wb.SpanPatternCount(), rb.SpanPatternCount(); w != g {
		t.Fatalf("span pattern count diverged: in-process %d, chaos %d", w, g)
	}
	if w, g := wb.TopoPatternCount(), rb.TopoPatternCount(); w != g {
		t.Fatalf("topo pattern count diverged: in-process %d, chaos %d", w, g)
	}

	// Redialed connections keep carrying traffic after the storm: fresh
	// sync reads answer without error.
	if res := remote.Query(ids[0]); res.Kind == mint.Miss {
		t.Fatal("post-calm query missed a captured trace")
	}
	if err := remote.Err(); err != nil {
		t.Fatalf("transport latched an error across the storm: %v", err)
	}
}
