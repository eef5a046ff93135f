package main

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// metricDef names one metric. The tables below are the benchmark's fixed
// vocabulary: later changes cite these names, BENCHMARK.json lists them
// (a test keeps the two in step), and compare takes direction and bound
// from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median by which it may worsen
	Help   string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md says where a workload measures a metric that is
// not its focus. Of the issue's fourteen, three are not in this list:
// failed_ratio is printed by name but travels as the result's
// attempted/failed pair (it is 0 on a healthy tree and any rise is a
// regression, which a relative bound cannot express), and the two tails,
// capture_p99_us and query_p99_us, are per-layer metrics: on the reference
// box their run-to-run spread on the mintd workloads is wider than the
// widest bound a driver accepts, and the issue's rule for that is to demote,
// not to widen. The bounds are about three times the widest spread measured
// over ten seeds on any workload (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median set-up time: corpus, cluster or mintd start, warm-up, preload"},
	{"capture_traces_per_s", "traces/s", "higher", 0.25, "closed-loop traces captured per wall second of the section, flushes included"},
	{"capture_p50_us", "us", "lower", 0.25, "median latency of one capture op (a trace, or one OTLP request); from due time in open loop"},
	{"cpu_ms_per_ktrace", "ms", "lower", 0.25, "process CPU (self + mintd child) per 1000 traces captured"},
	{"query_per_s", "queries/s", "higher", 0.25, "closed-loop single-ID Query completions per second of query time"},
	{"query_p50_us", "us", "lower", 0.25, "median single-ID Query latency"},
	{"find_p50_ms", "ms", "lower", 0.25, "median FindTraces latency (service+errors and min-duration searches), query cache warm"},
	{"storage_ratio", "ratio", "lower", 0.15, "stored bytes / raw span bytes captured"},
	{"network_ratio", "ratio", "lower", 0.15, "agent-to-backend report bytes / raw span bytes captured"},
	{"exact_hit_ratio", "ratio", "higher", 0.15, "share of distinct queried captured IDs answered exactly"},
	{"peak_rss_mb", "MB", "lower", 0.25, "peak resident set of the process under test (mintd where there is one)"},
}

// perLayer is what a traced run reports, layer = package name.
var perLayer = []metricDef{
	{Name: "otlp.pb_decode_ns_per_span", Unit: "ns", Better: "lower"},
	{Name: "otlp.json_decode_ns_per_span", Unit: "ns", Better: "lower"},
	{Name: "otlp.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "otlp.decode_allocs_per_span", Unit: "count", Better: "lower"},
	{Name: "parser.parse_ns_per_span", Unit: "ns", Better: "lower"},
	{Name: "parser.library_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "parser.patterns", Unit: "count", Better: "lower"},
	{Name: "parser.respaced_span_ratio", Unit: "ratio", Better: "lower"},
	{Name: "parser.unfilled_span_ratio", Unit: "ratio", Better: "lower"},
	{Name: "topo.encode_ns_per_subtrace", Unit: "ns", Better: "lower"},
	{Name: "topo.mount_ns_per_subtrace", Unit: "ns", Better: "lower"},
	{Name: "topo.patterns", Unit: "count", Better: "lower"},
	{Name: "bloom.filters_full", Unit: "count", Better: "lower"},
	{Name: "bloom.add_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.evictions", Unit: "count", Better: "lower"},
	{Name: "buffer.used_bytes", Unit: "B", Better: "lower"},
	{Name: "sampler.sampled_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sampler.sampled_ratio.abnormal", Unit: "ratio", Better: "lower"},
	{Name: "sampler.sampled_ratio.outlier", Unit: "ratio", Better: "lower"},
	{Name: "sampler.sampled_ratio.edge-case", Unit: "ratio", Better: "lower"},
	{Name: "agent.ingest_ns_per_subtrace", Unit: "ns", Better: "lower"},
	{Name: "agent.self_ns_per_subtrace", Unit: "ns", Better: "lower"},
	{Name: "collector.flush_patterns_us", Unit: "us", Better: "lower"},
	{Name: "collector.reports_per_ktrace", Unit: "count", Better: "lower"},
	{Name: "collector.bytes_per_trace.patterns", Unit: "B", Better: "lower"},
	{Name: "collector.bytes_per_trace.bloom", Unit: "B", Better: "lower"},
	{Name: "collector.bytes_per_trace.params", Unit: "B", Better: "lower"},
	{Name: "collector.bytes_per_trace.notice", Unit: "B", Better: "lower"},
	{Name: "wire.encode_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_bytes_per_trace", Unit: "B", Better: "lower"},
	{Name: "backend.apply_patterns_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.apply_bloom_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.apply_params_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.mark_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.storage_bytes.patterns", Unit: "B", Better: "lower"},
	{Name: "backend.storage_bytes.blooms", Unit: "B", Better: "lower"},
	{Name: "backend.storage_bytes.params", Unit: "B", Better: "lower"},
	{Name: "capture_p99_us", Unit: "us", Better: "lower"},
	{Name: "query_p99_us", Unit: "us", Better: "lower"},
	{Name: "backend.query_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.query_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "backend.cache_stale_ratio", Unit: "ratio", Better: "lower"},
	{Name: "backend.querymany64_us", Unit: "us", Better: "lower"},
	{Name: "backend.find_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.querymany_par2_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "backend.phantom_hit_ratio", Unit: "ratio", Better: "lower"},
	{Name: "backend.query_under_write_ratio", Unit: "ratio", Better: "lower"},
	{Name: "backend.apply_under_read_ratio", Unit: "ratio", Better: "lower"},
	{Name: "backend.wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.wal.flush_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "backend.wal.flush_ms_max", Unit: "ms", Better: "lower"},
	{Name: "backend.wal.bytes_per_trace", Unit: "B", Better: "lower"},
	{Name: "backend.wal.disk_ratio", Unit: "ratio", Better: "lower"},
	{Name: "backend.wal.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.wal.reopen_s", Unit: "s", Better: "lower"},
	{Name: "rpc.ping_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "rpc.query_overhead_us", Unit: "us", Better: "lower"},
	{Name: "rpc.envelopes_per_ktrace", Unit: "count", Better: "lower"},
	{Name: "rpc.retries", Unit: "count", Better: "lower"},
	{Name: "rpc.redials", Unit: "count", Better: "lower"},
	{Name: "rpc.replayed", Unit: "count", Better: "lower"},
	{Name: "rpc.dropped", Unit: "count", Better: "lower"},
	{Name: "rpc.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "rpc.serve_us", Unit: "us", Better: "lower"},
	{Name: "mint.capture_ns_per_trace", Unit: "ns", Better: "lower"},
	{Name: "mint.flush_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mint.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "mint.capture_par2_traces_per_s", Unit: "traces/s", Better: "higher"},
	{Name: "mint.capture_par2_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "mint.residual_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.allocs_per_trace", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "gen.lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gen.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload, as written to out/result.json and
// (the four contract keys) printed as the last line of standard output.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Extra      map[string]float64     `json:"extra,omitempty"`      // measured, printed, but outside the contract's lists
	Samples    map[string]int         `json:"samples,omitempty"`    // sample count behind each latency metric
	Flags      []string               `json:"flags,omitempty"`      // picker fall-backs, caps hit, generator validity
	Invalid    bool                   `json:"invalid,omitempty"`    // the generator, not the program, was the bottleneck
	Violations []string               `json:"violations,omitempty"` // first oracle violations, verbatim
	WallS      float64                `json:"wall_s"`
}

// rec accumulates one run's outcome; safe for the workload's goroutines.
type rec struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	violations []string
	flags      []string
	invalid    bool
	m          map[string]float64
	samples    map[string]int
	preload    loopStats // query_readonly: the set-ups' preloads, pooled
}

func newRec() *rec { return &rec{m: map[string]float64{}, samples: map[string]int{}} }

func (r *rec) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed op and keeps the first few messages.
func (r *rec) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.violations) < 10 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// addPreload pools one set-up's capture loop with the earlier ones.
func (r *rec) addPreload(st loopStats) {
	r.mu.Lock()
	p := &r.preload
	p.done += st.done
	p.ends += st.ends
	p.capped = p.capped || st.capped
	p.lat = append(p.lat, st.lat...)
	p.wall += st.wall
	p.cpu += st.cpu
	p.busy += st.busy
	r.mu.Unlock()
}

func (r *rec) flag(format string, args ...any) {
	r.mu.Lock()
	r.flags = append(r.flags, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// markInvalid flags a run whose generator was the bottleneck.
func (r *rec) markInvalid(format string, args ...any) {
	r.flag("INVALID: "+format, args...)
	r.mu.Lock()
	r.invalid = true
	r.mu.Unlock()
}

func (r *rec) set(name string, v float64) {
	r.mu.Lock()
	r.m[name] = v
	r.mu.Unlock()
}

// sampled notes how many samples stand behind a metric.
func (r *rec) sampled(name string, n int) {
	r.mu.Lock()
	r.samples[name] = n
	r.mu.Unlock()
}

// setLatency stores a p50/tail pair and notes when the tail is not p99.
func (r *rec) setLatency(p50Name, tailName string, s latencySummary) {
	r.set(p50Name, s.P50)
	r.set(tailName, s.Tail)
	r.sampled(p50Name, s.N)
	r.sampled(tailName, s.N)
	if s.TailAt != 99 {
		r.flag("%s reported at p%g: %d samples leave fewer than %d beyond p99 per window", tailName, s.TailAt, s.N, minBeyond)
	}
}

// result shapes the record into the run's result over the given metric list.
func (r *rec) result(workload string, seed int64, traced bool, defs []metricDef) runResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := runResult{
		Workload: workload, Seed: seed, Trace: traced,
		Attempted: r.attempted, Failed: r.failed,
		Correct:    r.failed == 0,
		Metrics:    map[string]metricValue{},
		Extra:      map[string]float64{},
		Samples:    r.samples,
		Flags:      r.flags,
		Invalid:    r.invalid,
		Violations: r.violations,
	}
	listed := map[string]bool{}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: r.m[d.Name], Unit: d.Unit}
		listed[d.Name] = true
	}
	for name, v := range r.m {
		if !listed[name] {
			res.Extra[name] = v
		}
	}
	return res
}

// registryTotals reads a telemetry registry's histograms as stage totals
// keyed like /metricsz series, so in-process and mintd runs attribute the
// same way.
func registryTotals(reg *telemetry.Registry) map[string]stageTotal {
	out := map[string]stageTotal{}
	for _, s := range reg.Snapshots() {
		key := s.Name
		if s.Labels != "" {
			key += "{" + s.Labels + "}"
		}
		out[key] = stageTotal{Stage: key, Count: s.Count, TotalNS: int64(s.Sum)}
	}
	return out
}

func diffTotals(before, after map[string]stageTotal) []stageTotal {
	var out []stageTotal
	for k, a := range after {
		b := before[k]
		if a.Count > b.Count {
			out = append(out, stageTotal{Stage: k, Count: a.Count - b.Count, TotalNS: a.TotalNS - b.TotalNS})
		}
	}
	sortStages(out)
	return out
}

func sortStages(s []stageTotal) {
	sort.Slice(s, func(i, j int) bool { return s[i].Stage < s[j].Stage })
}
