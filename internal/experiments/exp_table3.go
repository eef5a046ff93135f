package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/rca"
	"repro/internal/sim"
	"repro/mint"
)

// Table3RCA reproduces Table 3 (with the fault campaign of Table 2): top-1
// accuracy of three trace-based RCA methods over the traces each tracing
// framework retains, on OnlineBoutique and TrainTicket, across 56 injected
// faults (28 per benchmark, round-robin over the five fault types).
func Table3RCA() *Result {
	res := &Result{
		ID:     "tab3",
		Title:  "RCA top-1 accuracy (A@1) per tracing framework",
		Header: []string{"benchmark", "rca-method", "OT-Head", "OT-Tail", "Sieve", "Hindsight", "Mint"},
	}
	benchmarks := []struct {
		name string
		mk   func(int64) *sim.System
	}{
		{"OB", sim.OnlineBoutique},
		{"TT", sim.TrainTicket},
	}
	methods := []rca.Method{rca.MicroRank{}, rca.TraceAnomaly{}, rca.TraceRCA{}}
	const faultsPerBenchmark = 28
	const normalPerFault = 250
	const abnormalPerFault = 12

	for bi, bm := range benchmarks {
		// accuracy[method][framework] accumulates top-1 hits.
		hits := make([][]int, len(methods))
		for i := range hits {
			hits[i] = make([]int, 5)
		}
		sys := bm.mk(int64(3000 + bi))
		services := serviceNames(sys)
		faults := sim.FaultCampaign(sys.RNG(), sys.TrafficServices(), faultsPerBenchmark)
		warm := sim.GenTraces(sys, 200)

		for _, fault := range faults {
			fws := []baseline.Framework{
				baseline.NewOTHead(0.05),
				baseline.NewOTTailOnFlag(abnormalFlag),
				baseline.NewSieve(8, 256, 11),
				baseline.NewHindsightOnFlag(abnormalFlag),
				newMint(sys.Nodes, mint.Config{BloomBufferBytes: 512}),
			}
			for _, fw := range fws {
				fw.Warmup(warm)
			}
			// One incident window: steady traffic with the fault firing on
			// a subset of requests.
			for i := 0; i < normalPerFault; i++ {
				t := sys.GenTrace(sys.PickAPI(), sim.GenOptions{})
				for _, fw := range fws {
					fw.Capture(t)
				}
			}
			for i := 0; i < abnormalPerFault; i++ {
				t := sys.GenTrace(sys.PickAPI(), sim.GenOptions{Fault: fault})
				for _, fw := range fws {
					fw.Capture(t)
				}
			}
			sealMint(fws) // the RCA query phase reads the sealed deployment
			for fi, fw := range fws {
				fw.Flush()
				retained := fw.Retained()
				p99 := rca.RootDurationP99(retained)
				normal, abnormal := rca.Partition(retained, p99)
				d := rca.Dataset{Normal: normal, Abnormal: abnormal, Services: services}
				for mi, m := range methods {
					ranking := m.Localize(d)
					if len(ranking) > 0 && ranking[0] == fault.Service {
						hits[mi][fi]++
					}
				}
			}
		}
		for mi, m := range methods {
			row := []string{bm.name, m.Name()}
			for fi := 0; fi < 5; fi++ {
				row = append(row, fmtF(float64(hits[mi][fi])/float64(faultsPerBenchmark), 4))
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Notes = append(res.Notes,
		"paper: baselines score 0.07–0.38 A@1; Mint scores 0.50–0.70 by retaining all-trace commonality plus exact edge cases",
		fmt.Sprintf("%d faults per benchmark over %d fault types (Table 2)", faultsPerBenchmark, len(sim.AllFaultTypes)))
	return res
}
