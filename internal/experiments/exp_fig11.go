package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/mint"
)

// abnormalFlag is the tag injected anomalies carry so biased sampling
// methods sample consistently (§5.1).
const abnormalFlag = "is_abnormal"

// sweepScale divides the paper's request rates so a sweep finishes in
// seconds: n simulated traces represent n*sweepScale requests, and byte
// rates are multiplied back up when reported.
const sweepScale = 100

// newFrameworkSet builds the six frameworks of Fig. 11 over a system's
// nodes. Mint uses paper defaults; 4 KB Bloom buffers amortize poorly at 1/100 scale, so
// the buffer scales down with the workload (documented in EXPERIMENTS.md).
func newFrameworkSet(nodes []string, seed int64) []baseline.Framework {
	return []baseline.Framework{
		baseline.NewOTFull(),
		baseline.NewOTHead(0.05),
		baseline.NewOTTailOnFlag(abnormalFlag),
		baseline.NewSieve(8, 256, seed),
		baseline.NewHindsightOnFlag(abnormalFlag),
		newMint(nodes, mint.Config{BloomBufferBytes: 512}),
	}
}

// genMixedTraffic produces n traces with the given abnormal fraction.
func genMixedTraffic(sys *sim.System, n int, abnormalFrac float64) []*trace.Trace {
	services := sys.TrafficServices()
	out := make([]*trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		if sys.RNG().Float64() < abnormalFrac {
			f := sim.RandomFault(sys.RNG(), services)
			out = append(out, sys.GenTrace(sys.PickAPI(), sim.GenOptions{Fault: f}))
		} else {
			out = append(out, sys.GenTrace(sys.PickAPI(), sim.GenOptions{}))
		}
	}
	return out
}

// Fig11OverheadSweep reproduces Fig. 11: trace network bandwidth and
// storage overhead (MB/min) versus request throughput on OnlineBoutique and
// TrainTicket for six tracing frameworks. 5% of traffic is tagged abnormal
// and every biased method samples on the tag.
func Fig11OverheadSweep() *Result {
	res := &Result{
		ID:    "fig11",
		Title: "Network and storage overhead vs request throughput (MB/min, production scale)",
		Header: []string{
			"benchmark", "framework", "req/min", "network(MB/min)", "storage(MB/min)",
			"net%ofFull", "sto%ofFull",
		},
	}
	benchmarks := []struct {
		name string
		mk   func(int64) *sim.System
	}{
		{"OnlineBoutique", sim.OnlineBoutique},
		{"TrainTicket", sim.TrainTicket},
	}
	for bi, bm := range benchmarks {
		for _, rate := range workload.Fig11Throughputs {
			n := rate / sweepScale
			sys := bm.mk(int64(1000 + bi))
			warm := sim.GenTraces(sys, 200)
			fws := newFrameworkSet(sys.Nodes, int64(42+bi))
			for _, fw := range fws {
				fw.Warmup(warm)
			}
			traffic := genMixedTraffic(sys, n, 0.05)
			for _, fw := range fws {
				for _, t := range traffic {
					fw.Capture(t)
				}
				fw.Flush()
			}
			sealMint(fws)
			var fullNet, fullSto float64
			for fi, fw := range fws {
				net := float64(fw.NetworkBytes()) * sweepScale / 1e6
				sto := float64(fw.StorageBytes()) * sweepScale / 1e6
				if fi == 0 {
					fullNet, fullSto = net, sto
				}
				netPct, stoPct := "", ""
				if fullNet > 0 {
					netPct = fmtPct(net / fullNet)
				}
				if fullSto > 0 {
					stoPct = fmtPct(sto / fullSto)
				}
				res.Rows = append(res.Rows, []string{
					bm.name, fw.Name(), fmtI(rate), fmtF(net, 1), fmtF(sto, 1), netPct, stoPct,
				})
			}
		}
	}
	res.Notes = append(res.Notes,
		"paper: Mint reduces storage to 2.7% and network to 4.2% of OT-Full on average",
		fmt.Sprintf("workload simulated at 1/%d scale; byte rates scaled back to production req/min", sweepScale))
	return res
}
