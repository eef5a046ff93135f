package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/mint"
)

// Fig12QueryHits reproduces Fig. 12: the number of user queries each
// tracing framework can answer per day over a 14-day monitoring window.
// Exact hits return full trace information; Mint additionally answers every
// remaining query with an approximate trace (partial hits), so Mint-Partial
// tracks the total query line. Queries interleave with captures day by day.
func Fig12QueryHits() *Result {
	res := &Result{
		ID:    "fig12",
		Title: "Query hit numbers over 14 days (exact hits; Mint also shown with partial hits)",
		Header: []string{
			"day", "total", "OT-Head", "OT-Tail", "Sieve", "Hindsight", "Mint-Exact", "Mint-Partial",
		},
	}
	sys := sim.AlibabaLike("f12", 5, 12, 4242)
	warm := sim.GenTraces(sys, 200)

	// Frameworks persist across the whole 14-day window (queries may target
	// any trace captured during the window).
	fws := []baseline.Framework{
		baseline.NewOTHead(0.05),
		baseline.NewOTTailOnFlag(abnormalFlag),
		baseline.NewSieve(8, 256, 7),
		baseline.NewHindsightOnFlag(abnormalFlag),
		newMint(sys.Nodes, mint.Config{BloomBufferBytes: 512}),
	}
	for _, fw := range fws {
		fw.Warmup(warm)
	}
	model := workload.NewQueryModel(99, 0.6)

	const days = 14
	const tracesPerDay = 1200
	const queriesPerDay = 230
	var totals [8]int
	var lastQueries []string
	for d := 0; d < days; d++ {
		var normal, abnormal []*trace.Trace
		services := sys.TrafficServices()
		for i := 0; i < tracesPerDay; i++ {
			var tr *trace.Trace
			if sys.RNG().Float64() < 0.05 {
				tr = sys.GenTrace(sys.PickAPI(), sim.GenOptions{Fault: sim.RandomFault(sys.RNG(), services)})
				abnormal = append(abnormal, tr)
			} else {
				tr = sys.GenTrace(sys.PickAPI(), sim.GenOptions{})
				normal = append(normal, tr)
			}
			for _, fw := range fws {
				fw.Capture(tr)
			}
		}
		for _, fw := range fws {
			fw.Flush()
		}
		queries := model.Pick(normal, abnormal, queriesPerDay)
		lastQueries = queries

		row := []string{fmt.Sprintf("d%02d", d+1), fmtI(len(queries))}
		totals[0] += len(queries)
		var mintExact, mintPartial int
		for fi, fw := range fws {
			exact := 0
			for _, id := range queries {
				r := fw.Query(id)
				if r.Kind == backend.ExactHit {
					exact++
				}
				if fi == len(fws)-1 && r.Kind != backend.Miss {
					mintPartial++
				}
			}
			if fi == len(fws)-1 {
				mintExact = exact
			} else {
				row = append(row, fmtI(exact))
				totals[fi+1] += exact
			}
		}
		row = append(row, fmtI(mintExact), fmtI(mintPartial))
		totals[5] += mintExact
		totals[6] += mintPartial
		res.Rows = append(res.Rows, row)
	}
	res.Rows = append(res.Rows, []string{
		"sum", fmtI(totals[0]), fmtI(totals[1]), fmtI(totals[2]), fmtI(totals[3]),
		fmtI(totals[4]), fmtI(totals[5]), fmtI(totals[6]),
	})
	// Seal the Mint deployment and re-answer the final day's queries against
	// the sealed store: the row must match d14's Mint columns.
	sealMint(fws)
	mintFW := fws[len(fws)-1]
	var sealedExact, sealedPartial int
	for _, id := range lastQueries {
		switch mintFW.Query(id).Kind {
		case backend.ExactHit:
			sealedExact++
			sealedPartial++
		case backend.PartialHit:
			sealedPartial++
		}
	}
	res.Rows = append(res.Rows, []string{
		"d14*", fmtI(len(lastQueries)), "-", "-", "-", "-", fmtI(sealedExact), fmtI(sealedPartial),
	})
	res.Notes = append(res.Notes,
		"paper: Mint-Partial answers every query (tracks the Total line) and Mint-Exact exceeds all baselines",
		"d14*: day-14 queries re-answered after Seal")
	return res
}
