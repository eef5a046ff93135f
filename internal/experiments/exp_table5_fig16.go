package experiments

import (
	"fmt"

	"repro/internal/logcomp"
	"repro/internal/parser"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Table5PatternCounts reproduces Table 5: the number of span-level and
// trace-level patterns the Span Parser and Trace Parser extract from an
// hour of raw traces on five Alibaba Cloud sub-services.
func Table5PatternCounts() *Result {
	res := &Result{
		ID:     "tab5",
		Title:  "Pattern extraction results of Span Parser and Trace Parser",
		Header: []string{"sub-service", "raw-traces", "span-patterns", "trace-patterns", "traces/span-pat", "traces/trace-pat"},
	}
	for si, spec := range sim.Table5SubServices {
		sys := sim.SubServiceSystem(spec, int64(7000+si))
		traces := sim.GenTraces(sys, spec.TraceNum)

		p := parser.New(parser.Defaults())
		topoLib := topo.NewLibrary(0, 0)
		for _, t := range traces {
			for node, spans := range t.ByNode() {
				for _, st := range trace.BuildSubTraces(node, spans) {
					parsed := map[string]*parser.ParsedSpan{}
					for _, s := range st.Spans {
						_, ps := p.Parse(s)
						parsed[s.SpanID] = ps
					}
					enc := topo.Encode(st, parsed)
					topoLib.Mount(enc.Pattern, st.TraceID)
				}
			}
		}
		spanPats := p.Library().Len()
		topoPats := topoLib.Len()
		res.Rows = append(res.Rows, []string{
			spec.Name,
			fmtI(len(traces)),
			fmtI(spanPats),
			fmtI(topoPats),
			fmtF(float64(len(traces))/float64(spanPats), 0),
			fmtF(float64(len(traces))/float64(topoPats), 0),
		})
	}
	res.Notes = append(res.Notes,
		"paper (at 100x trace counts): 7–14 span patterns and 3–8 trace patterns per sub-service; "+
			"our patterns include numeric-bucket variants, so counts run higher at the same order of magnitude")
	return res
}

// Fig16Sensitivity reproduces Fig. 16: total storage size of patterns plus
// parameters (no sampling, no Bloom filters) as the Span Parser's
// similarity threshold sweeps 0.2–0.8 on two datasets and two sub-services.
func Fig16Sensitivity() *Result {
	res := &Result{
		ID:     "fig16",
		Title:  "Pattern+parameter storage (MB) vs similarity threshold",
		Header: []string{"corpus", "t=0.2", "t=0.4", "t=0.6", "t=0.8"},
	}
	thresholds := []float64{0.2, 0.4, 0.6, 0.8}
	corpora := []struct {
		name   string
		traces []*trace.Trace
	}{
		{"DatasetA", table4Corpus(sim.Fig13Datasets[0], 8001)},
		{"DatasetB", table4Corpus(sim.Fig13Datasets[1], 8002)},
		{"SubSvc1", sim.GenTraces(sim.SubServiceSystem(sim.Table5SubServices[0], 8003), 1200)},
		{"SubSvc2", sim.GenTraces(sim.SubServiceSystem(sim.Table5SubServices[1], 8004), 1200)},
	}
	for _, c := range corpora {
		row := []string{c.name}
		for _, th := range thresholds {
			comp := logcomp.MintCompressor{Threshold: th}
			row = append(row, fmtF(float64(comp.CompressedSize(c.traces))/1e6, 3))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: total size decreases as the threshold rises; 0.8 balances size against parameter quality",
		fmt.Sprintf("thresholds swept: %v", thresholds))
	return res
}
