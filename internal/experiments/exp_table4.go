package experiments

import (
	"fmt"

	"repro/internal/logcomp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// table4Compressors are the six columns of Table 4.
func table4Compressors() []logcomp.Compressor {
	return []logcomp.Compressor{
		logcomp.LogZipLike{},
		logcomp.LogReducerLike{},
		logcomp.CLPLike{},
		logcomp.MintCompressor{DisableSpanParsing: true},
		logcomp.MintCompressor{DisableTraceParsing: true},
		logcomp.MintCompressor{},
	}
}

// table4Corpus generates the scaled-down corpus for one Fig. 13 dataset.
func table4Corpus(spec sim.DatasetSpec, seed int64) []*trace.Trace {
	n := spec.TraceNum / 8
	if n < 400 {
		n = 400
	}
	if n > 1600 {
		n = 1600
	}
	sys := sim.DatasetSystem(spec, seed)
	return sim.GenTraces(sys, n)
}

// Table4Compression reproduces Table 4: compression ratio of the three
// log-specific compressors, Mint's two ablations, and full Mint on the six
// Alibaba-like datasets of Fig. 13.
func Table4Compression() *Result {
	res := &Result{
		ID:     "tab4",
		Title:  "Compression ratio (raw bytes / queryable compressed bytes)",
		Header: []string{"dataset", "LogZip", "LogReducer", "CLP", "w/oSp", "w/oTp", "Mint"},
	}
	comps := table4Compressors()
	for di, spec := range sim.Fig13Datasets {
		corpus := table4Corpus(spec, int64(4000+di))
		row := []string{spec.Name}
		for _, c := range comps {
			row = append(row, fmtF(logcomp.Ratio(c, corpus), 2))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: Mint 22.8–45.2, outperforming log compressors by 14.9–28.4 and both ablations by 8.5–26.5",
		"datasets scaled 8x down from Fig. 13 trace counts; ratios depend on structure, not corpus size")
	return res
}

// Fig13DatasetInfo reproduces Fig. 13(b): the basic information of the six
// datasets, with the average call depth measured from the generated corpus.
func Fig13DatasetInfo() *Result {
	res := &Result{
		ID:     "fig13",
		Title:  "Dataset descriptions (Fig. 13b)",
		Header: []string{"dataset", "traces(paper-scale)", "APIs", "target-depth", "measured-avg-spans"},
	}
	for di, spec := range sim.Fig13Datasets {
		sys := sim.DatasetSystem(spec, int64(4000+di))
		sample := sim.GenTraces(sys, 200)
		var spans float64
		for _, t := range sample {
			spans += float64(len(t.Spans))
		}
		spans /= float64(len(sample))
		res.Rows = append(res.Rows, []string{
			spec.Name,
			fmt.Sprintf("%d,000", spec.TraceNum/10*10),
			fmtI(spec.APINum),
			fmtI(spec.AvgDepth),
			fmtF(spans, 1),
		})
	}
	return res
}
