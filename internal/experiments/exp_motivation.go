package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig01DailyVolume reproduces Fig. 1: the daily trace volume of a
// large-scale e-commerce tracing system over 28 days (Feb. 21 – Mar. 20).
// The paper reports 18.6–20.5 PB/day; we model daily request counts with
// weekly seasonality over the measured per-trace size of the simulator's
// e-commerce system and report the same series shape in TB.
func Fig01DailyVolume() *Result {
	sys := sim.OnlineBoutique(1)
	sample := sim.GenTraces(sys, 500)
	var avg float64
	for _, t := range sample {
		avg += float64(t.Size())
	}
	avg /= float64(len(sample))

	rng := rand.New(rand.NewSource(101))
	const days = 28
	// Calibrate the request rate so the mean daily volume lands at the
	// paper's ~19.5 PB given our measured trace size.
	const targetMeanTB = 19500.0
	basePerDay := targetMeanTB * 1e12 / avg

	res := &Result{
		ID:     "fig1",
		Title:  "Daily trace volume over 28 days (TB/day)",
		Header: []string{"day", "requests(B)", "volume(TB)"},
	}
	var min, max float64 = math.Inf(1), math.Inf(-1)
	for d := 0; d < days; d++ {
		// Weekly seasonality (weekend dips) plus day-to-day noise.
		season := 1 + 0.03*math.Sin(2*math.Pi*float64(d)/7)
		noise := 1 + 0.02*rng.NormFloat64()
		reqs := basePerDay * season * noise
		tb := reqs * avg / 1e12
		if tb < min {
			min = tb
		}
		if tb > max {
			max = tb
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("Feb21+%02d", d),
			fmtF(reqs/1e9, 1),
			fmtF(tb, 0),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("range %.0f–%.0f TB/day (paper: 18,600–20,500 TB/day); avg trace size %.0f B", min, max, avg))
	return res
}

// Fig02ServiceOverhead reproduces Fig. 2: per-service storage overhead
// (GB/day) and tracing bandwidth increment (MB/min) for the five services
// with the largest trace volume, measured with full tracing (OT-Full).
func Fig02ServiceOverhead() *Result {
	type profile struct {
		name   string
		reqMin float64 // requests per minute (production scale)
		apis   int
		depth  int
	}
	profiles := []profile{
		{"SvcA", 240_000, 4, 12},
		{"SvcB", 200_000, 3, 10},
		{"SvcC", 160_000, 5, 8},
		{"SvcD", 120_000, 2, 14},
		{"SvcE", 90_000, 3, 6},
	}
	res := &Result{
		ID:     "fig2",
		Title:  "Storage and bandwidth overhead of tracing, top-5 services",
		Header: []string{"service", "storage(GB/day)", "tracing-bw(MB/min)", "business-bw(MB/min)"},
	}
	var totalGB, maxBW float64
	for i, p := range profiles {
		sys := sim.AlibabaLike(p.name, p.apis, p.depth, int64(200+i))
		sample := sim.GenTraces(sys, 300)
		var avg float64
		for _, t := range sample {
			avg += float64(t.Size())
		}
		avg /= float64(len(sample))
		bwMinBytes := p.reqMin * avg
		storageDayGB := bwMinBytes * 1440 / 1e9
		totalGB += storageDayGB
		if bwMinBytes/1e6 > maxBW {
			maxBW = bwMinBytes / 1e6
		}
		// Business traffic modeled as request+response payloads (~1.6 KB
		// per request), the denominator for the "tracing part" increment.
		businessMB := p.reqMin * 1600 / 1e6
		res.Rows = append(res.Rows, []string{
			p.name, fmtF(storageDayGB, 0), fmtF(bwMinBytes/1e6, 1), fmtF(businessMB, 1),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("average %.0f GB/day/service (paper: 7,639 GB/day avg); tracing adds up to ~%.0f MB/min (paper: up to 102 MB/min)",
			totalGB/float64(len(profiles)), maxBW))
	return res
}

// Fig03MissRate reproduces Fig. 3: the daily trace-query miss rate in two
// regions over 30 days when the deployment combines OpenTelemetry head
// sampling (5%) with tail sampling on tagged anomalies — the study that
// found a 27.17% average miss rate.
func Fig03MissRate() *Result {
	res := &Result{
		ID:     "fig3",
		Title:  "Query miss rate per day under head+tail sampling, 2 regions, 30 days",
		Header: []string{"day", "missA", "missB"},
	}
	var sum float64
	var n int
	type regionState struct {
		sys   *sim.System
		model *workload.QueryModel
	}
	regions := make([]*regionState, 2)
	for i := range regions {
		sys := sim.AlibabaLike(fmt.Sprintf("r%d", i), 5, 10, int64(300+i))
		regions[i] = &regionState{
			sys:   sys,
			model: workload.NewQueryModel(int64(400+i), 0.72),
		}
	}
	const days = 30
	const tracesPerDay = 1500
	const queriesPerDay = 150
	for d := 0; d < days; d++ {
		var missRates [2]float64
		for ri, rs := range regions {
			// Fresh day: samplers are stateless per day (head is hash
			// based; tail is a predicate), so reuse frameworks but track
			// daily hits only.
			head := baseline.NewOTHead(0.05)
			tail := baseline.NewOTTailOnFlag("is_abnormal")
			var normal, abnormal []*trace.Trace
			for i := 0; i < tracesPerDay; i++ {
				var tr *trace.Trace
				if rs.sys.RNG().Float64() < 0.05 {
					f := sim.RandomFault(rs.sys.RNG(), rs.sys.TrafficServices())
					tr = rs.sys.GenTrace(rs.sys.PickAPI(), sim.GenOptions{Fault: f})
					abnormal = append(abnormal, tr)
				} else {
					tr = rs.sys.GenTrace(rs.sys.PickAPI(), sim.GenOptions{})
					normal = append(normal, tr)
				}
				head.Capture(tr)
				tail.Capture(tr)
			}
			queries := rs.model.Pick(normal, abnormal, queriesPerDay)
			miss := 0
			for _, id := range queries {
				if head.Query(id).Kind == 0 && tail.Query(id).Kind == 0 {
					miss++
				}
			}
			missRates[ri] = float64(miss) / float64(len(queries))
			sum += missRates[ri]
			n++
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("Feb21+%02d", d), fmtPct(missRates[0]), fmtPct(missRates[1]),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("average miss rate %.2f%% (paper: 27.17%%)", 100*sum/float64(n)))
	return res
}

// serviceNames lists a system's services in sorted (deterministic) order.
func serviceNames(s *sim.System) []string {
	out := make([]string, 0, len(s.ServiceNode))
	for svc := range s.ServiceNode {
		out = append(out, svc)
	}
	sort.Strings(out)
	return out
}
