package experiments

import "sort"

// Entry pairs an experiment ID with its driver.
type Entry struct {
	ID    string
	Title string
	Run   func() *Result
	Heavy bool // takes more than ~10 s
}

// All returns every experiment driver, in paper order.
func All() []Entry {
	return []Entry{
		{ID: "fig1", Title: "Daily trace volume (Fig. 1)", Run: Fig01DailyVolume},
		{ID: "fig2", Title: "Per-service tracing overhead (Fig. 2)", Run: Fig02ServiceOverhead},
		{ID: "fig3", Title: "Query miss rate under sampling (Fig. 3)", Run: Fig03MissRate},
		{ID: "tab1", Title: "Commonality occurrence/proportion (Table 1)", Run: Table1Commonality},
		{ID: "fig11", Title: "Network/storage overhead sweep (Fig. 11)", Run: Fig11OverheadSweep, Heavy: true},
		{ID: "fig12", Title: "Query hit numbers over 14 days (Fig. 12)", Run: Fig12QueryHits, Heavy: true},
		{ID: "tab3", Title: "RCA top-1 accuracy (Table 3)", Run: Table3RCA, Heavy: true},
		{ID: "fig13", Title: "Dataset descriptions (Fig. 13)", Run: Fig13DatasetInfo},
		{ID: "tab4", Title: "Compression ratios (Table 4)", Run: Table4Compression, Heavy: true},
		{ID: "fig14", Title: "Load-test overhead (Fig. 14)", Run: Fig14LoadTests, Heavy: true},
		{ID: "fig15", Title: "Request & query latency (Fig. 15)", Run: Fig15Latency},
		{ID: "tab5", Title: "Pattern extraction counts (Table 5)", Run: Table5PatternCounts},
		{ID: "fig16", Title: "Similarity-threshold sensitivity (Fig. 16)", Run: Fig16Sensitivity},
		{ID: "abl-bloom", Title: "Ablation: Bloom buffer size", Run: AblationBloomBuffer, Heavy: true},
		{ID: "abl-params", Title: "Ablation: Params Buffer size", Run: AblationParamsBuffer, Heavy: true},
		{ID: "abl-hap", Title: "Ablation: parallel HAP", Run: AblationParallelHAP},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Entry, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// IDs returns all experiment IDs sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
