package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/backend"
	"repro/internal/bloom"
	"repro/internal/collector"
	"repro/internal/intern"
	"repro/internal/otlp"
	"repro/internal/otlp/pb"
	"repro/internal/parser"
	"repro/internal/rpc"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/mint"
)

// The layer lab is the second half of a traced run. It assembles the
// capture pipeline by hand from each layer's exported constructors — the
// same wiring mint.Cluster does — with a timing shim at every boundary, so
// each layer is measured from outside and no file of the program changes.
// It runs the same way after every workload: the per-layer numbers describe
// the layers, the workload's own client spans (recorded before the lab)
// describe the workload.
//
// All counts are fixed (scaled by --seconds), the store is the durable
// sharded configuration (Shards:4 + DataDir, what mixed_durable and mintd
// run), and the corpus is the run's seed.

const (
	labShards     = 4
	labFlushEvery = 3000
)

// pipeline is the hand-assembled capture path: agent -> collector -> sink
// -> backend, one agent and collector per node, mirroring
// mint.Cluster.captureOne.
type pipeline struct {
	tr    *tracer
	nodes []string
	cols  map[string]*collector.Collector
	be    *backend.Backend
	meter *wire.Meter
	sink  *shimSink

	// Replicas: a second parser and topo encoder/library per node, fed the
	// same spans after the request's root span closed, to split
	// agent.Ingest's time by layer.
	parsers map[string]*parser.Parser
	topos   map[string]*topo.Library
	enc     *topo.Encoder
	parsed  map[string]*parser.ParsedSpan

	byNode    map[string][]*trace.Span
	traces    int
	subtraces int
	sampled   map[string]int // by reason class
	walFlush  []float64      // ms
	flushUS   []float64      // collector flush, all nodes, µs
	wireBuf   []byte
	wireBytes int
}

// shimSink is the collector.Sink between the collectors and the backend. It
// times every apply and queues the report for the wire replica.
type shimSink struct {
	tr        *tracer
	be        *backend.Backend
	queue     []wire.Message
	reports   int
	fullBloom int
}

func (s *shimSink) AcceptPatterns(r *wire.PatternReport) {
	s.tr.push("backend.apply_patterns", false)
	s.be.AcceptPatterns(r)
	s.tr.pop()
	s.reports++
	s.queue = append(s.queue, r)
}

func (s *shimSink) AcceptBloom(r *wire.BloomReport, immutable bool) {
	s.tr.push("backend.apply_bloom", false)
	s.be.AcceptBloom(r, immutable)
	s.tr.pop()
	s.reports++
	if immutable {
		s.fullBloom++
	}
	s.queue = append(s.queue, r)
}

func (s *shimSink) AcceptParams(r *wire.ParamsReport) {
	s.tr.push("backend.apply_params", false)
	s.be.AcceptParams(r)
	s.tr.pop()
	s.reports++
	s.queue = append(s.queue, r)
}

func (s *shimSink) MarkSampled(traceID, reason string) {
	s.tr.push("backend.mark", false)
	s.be.MarkSampled(traceID, reason)
	s.tr.pop()
}

func newPipeline(tr *tracer, co *corpus, dir string) (*pipeline, error) {
	be := backend.NewSharded(0, labShards)
	be.EnableQueryCache(0)
	if err := be.OpenPersistence(backend.PersistConfig{Dir: dir}); err != nil {
		return nil, err
	}
	p := &pipeline{
		tr: tr, nodes: co.nodes, be: be, meter: wire.NewMeter(),
		cols:    map[string]*collector.Collector{},
		parsers: map[string]*parser.Parser{},
		topos:   map[string]*topo.Library{},
		enc:     topo.NewEncoder(),
		parsed:  map[string]*parser.ParsedSpan{},
		byNode:  map[string][]*trace.Span{},
		sampled: map[string]int{},
	}
	p.sink = &shimSink{tr: tr, be: be}
	warm := map[string][]*trace.Span{}
	for _, t := range co.warm {
		for node, spans := range t.ByNode() {
			warm[node] = append(warm[node], spans...)
		}
	}
	for _, n := range p.nodes {
		a := agent.New(n, agent.Config{})
		a.Warmup(warm[n])
		p.cols[n] = collector.New(a, p.sink, p.meter)
		p.parsers[n] = parser.New(parser.Config{})
		p.parsers[n].Warmup(warm[n])
		p.topos[n] = topo.NewLibrary(0, 0)
	}
	return p, nil
}

// capture runs one trace through the pipeline under a "mint.capture" root
// span, then the replicas.
func (p *pipeline) capture(req int, t *trace.Trace) {
	p.tr.setReq(req)
	p.tr.push("mint.capture", false)
	for k, v := range p.byNode {
		p.byNode[k] = v[:0]
	}
	for _, sp := range t.Spans {
		p.byNode[sp.Node] = append(p.byNode[sp.Node], sp)
	}
	reason := ""
	for _, node := range p.nodes {
		spans := p.byNode[node]
		if len(spans) == 0 {
			continue
		}
		st := trace.SubTrace{TraceID: t.TraceID, Node: node, Spans: spans}
		p.tr.push("collector.ingest", false)
		res := p.cols[node].Ingest(&st)
		p.tr.pop()
		p.subtraces++
		if reason == "" && len(res.Samples) > 0 {
			reason = res.Samples[0].Reason
		}
	}
	if reason != "" {
		p.tr.push("collector.report_sampled", false)
		p.meter.Record("backend", &wire.SampleNotice{TraceID: t.TraceID, Reason: reason})
		for _, node := range p.nodes {
			p.cols[node].ReportSampled(t.TraceID)
		}
		p.tr.pop()
		class, _, _ := strings.Cut(reason, ":")
		p.sampled[class]++
	}
	p.tr.pop()
	p.traces++

	for _, node := range p.nodes {
		spans := p.byNode[node]
		if len(spans) == 0 {
			continue
		}
		st := trace.SubTrace{TraceID: t.TraceID, Node: node, Spans: spans}
		clear(p.parsed)
		p.tr.push("parser.parse", true)
		for _, s := range spans {
			_, ps := p.parsers[node].Parse(s)
			p.parsed[s.SpanID] = ps
		}
		p.tr.pop()
		p.tr.push("topo.encode", true)
		enc := p.enc.Encode(&st, p.parsed)
		p.tr.pop()
		p.tr.push("topo.mount", true)
		p.topos[node].Mount(enc.Pattern, t.TraceID)
		p.tr.pop()
	}
	p.wireReplica()
}

// wireReplica sends every report the sink saw through the wire codec and
// back, the work the rpc path and the WAL do with them.
func (p *pipeline) wireReplica() {
	for _, msg := range p.sink.queue {
		p.tr.push("wire.encode", true)
		switch r := msg.(type) {
		case *wire.PatternReport:
			p.wireBuf = wire.AppendPatternReport(p.wireBuf[:0], r)
		case *wire.BloomReport:
			p.wireBuf = wire.AppendBloomReport(p.wireBuf[:0], r)
		case *wire.ParamsReport:
			p.wireBuf = wire.AppendParamsReport(p.wireBuf[:0], r)
		}
		p.tr.pop()
		p.wireBytes += len(p.wireBuf)
		p.tr.push("wire.decode", true)
		var err error
		switch msg.(type) {
		case *wire.PatternReport:
			_, err = wire.UnmarshalPatternReport(p.wireBuf)
		case *wire.BloomReport:
			_, err = wire.UnmarshalBloomReport(p.wireBuf)
		case *wire.ParamsReport:
			_, err = wire.UnmarshalParamsReport(p.wireBuf)
		}
		p.tr.pop()
		if err != nil {
			panic("bench: wire round-trip of a report the collector just produced failed: " + err.Error())
		}
	}
	p.sink.queue = p.sink.queue[:0]
}

// flush is Cluster.Flush: every collector's periodic upload, then the WAL.
func (p *pipeline) flush(req int) error {
	p.tr.setReq(req)
	p.tr.push("mint.flush", false)
	p.tr.push("collector.flush_patterns", false)
	for _, node := range p.nodes {
		p.cols[node].FlushPatterns()
	}
	p.flushUS = append(p.flushUS, float64(p.tr.pop())/1e3)
	p.tr.push("backend.wal.flush", false)
	err := p.be.FlushPersistence()
	p.walFlush = append(p.walFlush, float64(p.tr.pop())/1e6)
	p.tr.pop()
	p.wireReplica()
	return err
}

// runLab measures every layer and adds the per-layer metrics to r.
func runLab(e *env, r *rec) error {
	// The traced workload ran on a quarter of the run; the lab gets half.
	quarter := e.seconds
	e.seconds = 2 * quarter
	defer func() { e.seconds = quarter }()
	tr := e.tr
	tr.fold() // the workload's client spans
	co := newCorpus(e.seed, poolTraces, false)
	oco := newCorpus(e.seed, 512, true)

	if err := labOTLP(e, r, oco); err != nil {
		return err
	}
	dir, err := e.tmpDir("lab")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := newPipeline(tr, co, dir)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = p.be.ClosePersistence()
		}
	}()

	// Capture through the shimmed pipeline.
	n := roundTo(e.count(1500, 1), e.every(labFlushEvery))
	for i := 0; i < n; i++ {
		p.capture(i, co.stamp(i))
		if (i+1)%e.every(labFlushEvery) == 0 {
			if err := p.flush(i); err != nil {
				return fmt.Errorf("lab flush: %w", err)
			}
		}
	}
	tr.fold()
	base := labTotals(tr)
	labCaptureMetrics(r, p, tr, co, n, dir)

	// Reads against the store the pipeline filled.
	coldP50 := labReads(e, r, p.be, co, n)

	// Contention: the same reads while the pipeline keeps capturing.
	nW := e.count(300, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := n; i < n+nW; i++ {
			p.capture(i, co.stamp(i))
		}
	}()
	order := rand.New(rand.NewSource(e.seed + 7)).Perm(n)
	var under []float64
	for k := 0; k < len(order) && k < 4*nW; k++ {
		id := co.id(order[len(order)-1-k]) // from the far end: not yet queried, so cold
		s := time.Now()
		p.be.Query(id)
		under = append(under, float64(time.Since(s)))
	}
	wg.Wait()
	if err := p.flush(n + nW); err != nil {
		return fmt.Errorf("lab flush: %w", err)
	}
	tr.fold()
	busy := labTotals(tr)
	r.set("backend.query_under_write_ratio", ratio(median(under), coldP50))
	r.set("backend.apply_under_read_ratio", ratio(
		ratio(float64(busy.applyNS-base.applyNS), float64(busy.captures-base.captures)),
		ratio(float64(base.applyNS), float64(base.captures))))
	if hits, misses, stale, ok := p.be.QueryCacheStats(); ok {
		r.set("backend.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
		r.set("backend.cache_stale_ratio", ratio(float64(stale), float64(hits+misses)))
	}

	// WAL maintenance and reopen.
	s := time.Now()
	if err := p.be.Compact(); err != nil {
		return fmt.Errorf("lab compact: %w", err)
	}
	r.set("backend.wal.compact_ms", float64(time.Since(s))/1e6)
	if err := p.be.ClosePersistence(); err != nil {
		return fmt.Errorf("lab close: %w", err)
	}
	closed = true
	s = time.Now()
	reopened := backend.NewSharded(0, labShards)
	if err := reopened.OpenPersistence(backend.PersistConfig{Dir: dir}); err != nil {
		return fmt.Errorf("lab reopen: %w", err)
	}
	r.set("backend.wal.reopen_s", time.Since(s).Seconds())
	if err := reopened.ClosePersistence(); err != nil {
		return fmt.Errorf("lab close: %w", err)
	}

	if err := labMint(e, r, tr, co); err != nil {
		return err
	}
	if err := labRemote(e, r, co, oco); err != nil {
		return err
	}

	// The pacer against a no-op: the generator's own lateness.
	pace := loop{n: e.count(mixedRate, 0.04), rate: mixedRate, deadline: time.Now().Add(time.Minute), do: func(int) {}}
	st := pace.run()
	r.set("gen.lag_ms_p99", p99(st.lag)/1e3)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("runtime.gc_pause_ms_total", float64(ms.PauseTotalNs)/1e6)
	return nil
}

// labTotal is the tracer's running totals the lab differences between
// sections.
type labTotal struct {
	captures int64
	applyNS  int64 // backend.apply_* + backend.mark
}

func labTotals(tr *tracer) labTotal {
	t := labTotal{captures: tr.total("mint.capture").Count}
	for _, name := range []string{"backend.apply_patterns", "backend.apply_bloom", "backend.apply_params", "backend.mark"} {
		t.applyNS += tr.total(name).TotalNS
	}
	return t
}

func meanNS(t spanTotal) float64 { return ratio(float64(t.TotalNS), float64(t.Count)) }

// labOTLP times the two OTLP decoders on the same requests.
func labOTLP(e *env, r *rec, oco *corpus) error {
	reqs, err := buildOTLPRequests(oco)
	if err != nil {
		return err
	}
	var spans, protoBytes int64
	var jsonReqs [][]byte
	for t, rq := range reqs {
		var all []*trace.Span
		for q := 0; q < otlpTracesPerRequest; q++ {
			all = append(all, oco.pool[t*otlpTracesPerRequest+q].Spans...)
		}
		j, err := otlp.Encode(all)
		if err != nil {
			return fmt.Errorf("encode OTLP/JSON: %w", err)
		}
		jsonReqs = append(jsonReqs, j)
		spans += int64(len(all))
		protoBytes += int64(len(rq.body))
	}
	dec := pb.NewDecoder(intern.NewDict())
	decode := func(passes int, one func(i int) error) (time.Duration, uint64, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := time.Now()
		for pass := 0; pass < passes; pass++ {
			for i := range reqs {
				if err := one(i); err != nil {
					return 0, 0, err
				}
			}
		}
		d := time.Since(s)
		runtime.ReadMemStats(&m1)
		return d, m1.Mallocs - m0.Mallocs, nil
	}
	pbPasses, jsonPasses := max(1, e.count(2.5, 1)), max(1, e.count(0.25, 1))
	if _, _, err := decode(1, func(i int) error { _, err := dec.Decode(reqs[i].body, otlpNode); return err }); err != nil {
		return fmt.Errorf("OTLP/protobuf decode: %w", err) // also warms the intern dictionary
	}
	d, allocs, err := decode(pbPasses, func(i int) error { _, err := dec.Decode(reqs[i].body, otlpNode); return err })
	if err != nil {
		return fmt.Errorf("OTLP/protobuf decode: %w", err)
	}
	n := float64(spans) * float64(pbPasses)
	r.set("otlp.pb_decode_ns_per_span", float64(d)/n)
	r.set("otlp.decode_allocs_per_span", float64(allocs)/n)
	r.set("otlp.decode_mb_per_s", float64(protoBytes)*float64(pbPasses)/1e6/d.Seconds())
	d, _, err = decode(jsonPasses, func(i int) error { _, err := otlp.Decode(jsonReqs[i], otlpNode); return err })
	if err != nil {
		return fmt.Errorf("OTLP/JSON decode: %w", err)
	}
	r.set("otlp.json_decode_ns_per_span", float64(d)/(float64(spans)*float64(jsonPasses)))
	return nil
}

// labCaptureMetrics turns the capture section's spans and counters into
// the agent-side and write-side layer metrics.
func labCaptureMetrics(r *rec, p *pipeline, tr *tracer, co *corpus, n int, dir string) {
	traces, subs := float64(n), float64(p.subtraces)
	spans := float64(co.spansIn(n))

	r.set("parser.parse_ns_per_span", float64(tr.total("parser.parse").TotalNS)/spans)
	var probes uint64
	patterns, topoPatterns := 0, 0
	var evicted uint64
	used := 0
	for _, node := range p.nodes {
		a := p.cols[node].Agent()
		probes += a.Parser().Library().Interns() // one library probe per parsed span
		patterns += a.Parser().Library().Len()
		topoPatterns += a.TopoLibrary().Len()
		evicted += a.Buffer().Evicted()
		used += a.Buffer().Used()
	}
	r.set("parser.library_hit_ratio", 1-ratio(float64(patterns), float64(probes)))
	r.set("parser.patterns", float64(patterns))
	r.set("topo.encode_ns_per_subtrace", float64(tr.total("topo.encode").TotalNS)/subs)
	r.set("topo.mount_ns_per_subtrace", float64(tr.total("topo.mount").TotalNS)/subs)
	r.set("topo.patterns", float64(topoPatterns))
	r.set("bloom.filters_full", float64(p.sink.fullBloom))
	r.set("buffer.evictions", float64(evicted))
	r.set("buffer.used_bytes", float64(used))

	sampled := 0
	for _, c := range p.sampled {
		sampled += c
	}
	r.set("sampler.sampled_ratio", float64(sampled)/traces)
	for _, class := range []string{"abnormal", "outlier", "edge-case"} {
		r.set("sampler.sampled_ratio."+class, float64(p.sampled[class])/traces)
	}

	ingest := float64(tr.total("collector.ingest").SelfNS) / subs
	r.set("agent.ingest_ns_per_subtrace", ingest)
	r.set("agent.self_ns_per_subtrace", ingest-
		(float64(tr.total("parser.parse").TotalNS)+float64(tr.total("topo.encode").TotalNS)+float64(tr.total("topo.mount").TotalNS))/subs)

	r.set("collector.flush_patterns_us", median(p.flushUS))
	r.set("collector.reports_per_ktrace", float64(p.sink.reports)*1000/traces)
	for _, kind := range []string{"patterns", "bloom", "params", "notice"} {
		r.set("collector.bytes_per_trace."+kind, float64(p.meter.ByKind(kind))/traces)
	}
	r.set("wire.encode_ns_per_report", meanNS(tr.total("wire.encode")))
	r.set("wire.decode_ns_per_report", meanNS(tr.total("wire.decode")))
	r.set("wire.batch_bytes_per_trace", float64(p.wireBytes)/traces)

	r.set("backend.apply_patterns_ns", meanNS(tr.total("backend.apply_patterns")))
	r.set("backend.apply_bloom_ns", meanNS(tr.total("backend.apply_bloom")))
	r.set("backend.apply_params_ns", meanNS(tr.total("backend.apply_params")))
	r.set("backend.mark_ns", meanNS(tr.total("backend.mark")))
	_, pat, bl, par := p.be.StorageBytes()
	r.set("backend.storage_bytes.patterns", float64(pat))
	r.set("backend.storage_bytes.blooms", float64(bl))
	r.set("backend.storage_bytes.params", float64(par))

	for _, s := range p.be.Telemetry().Snapshots() {
		if s.Name == "mint_wal_append_seconds" {
			r.set("backend.wal.append_ns", ratio(float64(s.Sum), float64(s.Count)))
		}
	}
	sorted := append([]float64(nil), p.walFlush...)
	sort.Float64s(sorted)
	r.set("backend.wal.flush_ms_p50", percentile(sorted, 50))
	r.set("backend.wal.flush_ms_max", sorted[len(sorted)-1])
	disk := dirBytes(dir)
	r.set("backend.wal.bytes_per_trace", float64(disk)/traces)
	r.set("backend.wal.disk_ratio", ratio(float64(disk), float64(co.raw(n))))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("runtime.heap_mb", float64(ms.HeapAlloc)/(1<<20))

	f := bloom.NewDefault()
	s := time.Now()
	const adds = 200_000
	for i := 0; i < adds; i++ {
		if f.Full() {
			f.Reset()
		}
		f.Add(co.id(i))
	}
	// co.id costs ~60ns of the loop; time it alone and subtract.
	loopNS := float64(time.Since(s))
	s = time.Now()
	sink := 0
	for i := 0; i < adds; i++ {
		sink += len(co.id(i))
	}
	idNS := float64(time.Since(s))
	if sink == 0 {
		panic("bench: empty trace IDs")
	}
	r.set("bloom.add_ns", (loopNS-idNS)/adds)
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil // a file compaction removed mid-walk is not an error
	})
	return total
}

// labReads measures the read path on a static store and returns the cold
// single-query median in ns.
func labReads(e *env, r *rec, be *backend.Backend, co *corpus, n int) float64 {
	order := rand.New(rand.NewSource(e.seed + 7)).Perm(n)
	nCold := min(n/3, e.count(400, 1))
	cold := make([]float64, 0, nCold)
	for _, op := range order[:nCold] {
		s := time.Now()
		be.Query(co.id(op))
		cold = append(cold, float64(time.Since(s)))
	}
	r.set("backend.query_cold_ns", median(cold))

	var warm []float64
	for rep := 0; rep < 50; rep++ {
		for _, op := range order[:min(64, nCold)] {
			s := time.Now()
			be.Query(co.id(op))
			warm = append(warm, float64(time.Since(s)))
		}
	}
	r.set("backend.query_warm_ns", median(warm))

	// Cache traffic under the read-only workload's access pattern; the stats
	// are read after the contention section, whose writes turn entries stale.
	for _, op := range zipfOrder(e.seed, zipfS, n, e.count(2500, 1)) {
		be.Query(co.id(int(op)))
	}

	ids := func(from, k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = co.id(order[(from+i)%n])
		}
		return out
	}
	var many []float64
	for rep := 0; rep < 30; rep++ {
		batch := ids(nCold+rep*manySize, manySize)
		s := time.Now()
		be.QueryMany(batch)
		many = append(many, float64(time.Since(s))/1e3)
	}
	r.set("backend.querymany64_us", median(many))

	// QueryMany with 2 workers against serial, on cold batches of equal
	// size: efficiency = serial time / (2 x parallel time).
	const par = 1024
	timeMany := func(workers, from int) float64 {
		be.SetQueryWorkers(workers)
		batch := ids(from, min(par, n/4))
		s := time.Now()
		be.QueryMany(batch)
		return float64(time.Since(s))
	}
	at := nCold + 30*manySize
	var serial, parallel []float64
	for rep := 0; rep < 3; rep++ {
		serial = append(serial, timeMany(-1, at))
		parallel = append(parallel, timeMany(2, at+par))
		at += 2 * par
	}
	be.SetQueryWorkers(0)
	r.set("backend.querymany_par2_efficiency", ratio(median(serial), 2*median(parallel)))

	svc, minDur := co.searchTargets()
	var finds []float64
	for rep := 0; rep < 3; rep++ {
		s := time.Now()
		be.FindTraces(backend.Filter{Service: svc, ErrorsOnly: true})
		be.FindTraces(backend.Filter{MinDurationUS: minDur, Candidates: ids(0, 256)})
		finds = append(finds, float64(time.Since(s))/2e6)
	}
	r.set("backend.find_ms", median(finds))
	return median(cold)
}

// labMint measures the real mint.Cluster in the lab's configuration,
// untraced: what the shimmed pipeline's stage times are compared against.
func labMint(e *env, r *rec, tr *tracer, co *corpus) error {
	n := roundTo(e.count(1000, 1), e.every(labFlushEvery))
	open := func(workers int) (*mint.Cluster, string, error) {
		dir, err := e.tmpDir("labmint")
		if err != nil {
			return nil, "", err
		}
		c, err := mint.Open(co.nodes, mint.Config{Shards: labShards, IngestWorkers: workers, DataDir: dir})
		if err != nil {
			return nil, dir, err
		}
		c.Warmup(co.warm)
		return c, dir, nil
	}

	c, dir, err := open(0)
	defer os.RemoveAll(dir)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	var capNS float64
	var flushMS []float64
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := co.stamp(i)
		s := time.Now()
		if err := c.Capture(t); err != nil {
			r.fail("lab capture op %d: %v", i, err)
		}
		capNS += float64(time.Since(s))
		if (i+1)%e.every(labFlushEvery) == 0 {
			s = time.Now()
			if err := c.Flush(); err != nil {
				r.fail("lab flush: %v", err)
			}
			flushMS = append(flushMS, float64(time.Since(s))/1e6)
		}
	}
	serial := float64(n) / time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	_ = c.Close()
	capNS /= float64(n)
	r.set("mint.capture_ns_per_trace", capNS)
	r.set("mint.flush_ms_p50", median(flushMS))
	r.set("runtime.allocs_per_trace", float64(m1.Mallocs-m0.Mallocs)/float64(n))

	// The shimmed pipeline against the real cluster: how much slower the
	// traced path ran, and how much of a traced capture no stage accounts for.
	root := tr.total("mint.capture")
	r.set("trace.overhead_ratio", ratio(meanNS(root), capNS)-1)
	residual := ratio(float64(root.SelfNS), float64(root.TotalNS))
	r.set("mint.residual_ratio", residual)
	if residual > 0.10 {
		r.flag("mint.residual_ratio %.2f: over a tenth of a capture is outside the timed stages (collector ingest, shard apply, mark, sampled-params upload); the unattributed stage is the per-node partitioning of the trace's spans", residual)
	}

	// Two CaptureAsync producers into two ingest workers.
	pc, pdir, err := open(2)
	defer os.RemoveAll(pdir)
	if err != nil {
		return err
	}
	s := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += 2 { // disjoint pool slots per producer
				if err := pc.CaptureAsync(co.stamp(i)); err != nil {
					r.fail("lab par2 capture op %d: %v", i, err)
				}
			}
		}(k)
	}
	wg.Wait()
	if err := pc.Flush(); err != nil {
		r.fail("lab par2 flush: %v", err)
	}
	par2 := float64(n) / time.Since(s).Seconds()
	_ = pc.Close()
	r.set("mint.capture_par2_traces_per_s", par2)
	r.set("mint.capture_par2_efficiency", ratio(par2, 2*serial))
	return nil
}

// labRemote measures the transport against a mintd child: ping, query
// overhead over in-process, frames per trace, the server's own queue and
// serve times, and HTTP overhead over an in-process OTLP capture.
func labRemote(e *env, r *rec, co, oco *corpus) error {
	if err := e.needMintd(); err != nil {
		return err
	}
	dir, err := e.tmpDir("labrpc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startMintd(e.mintdBin, dir, 2)
	if err != nil {
		return err
	}
	defer d.kill()

	cli, err := rpc.DialPool(d.rpcAddr, 1)
	if err != nil {
		return err
	}
	var pings []float64
	for i := 0; i < e.count(60, 1); i++ {
		s := time.Now()
		if err := cli.Ping(); err != nil {
			_ = cli.Close()
			return fmt.Errorf("ping: %w", err)
		}
		pings = append(pings, float64(time.Since(s))/1e3)
	}
	_ = cli.Close()
	r.set("rpc.ping_rtt_us_p50", median(pings))

	n := roundTo(e.count(400, 1), e.every(1000))
	fill := func(c *mint.Cluster) (float64, error) {
		c.Warmup(co.warm)
		for i := 0; i < n; i++ {
			if err := c.Capture(co.stamp(i)); err != nil {
				return 0, err
			}
			if (i+1)%e.every(1000) == 0 {
				if err := c.Flush(); err != nil {
					return 0, err
				}
			}
		}
		var lat []float64
		for _, op := range rand.New(rand.NewSource(e.seed + 9)).Perm(n)[:min(n, e.count(250, 1))] {
			s := time.Now()
			c.Query(co.id(op))
			lat = append(lat, float64(time.Since(s))/1e3)
		}
		return median(lat), c.Err()
	}
	before, err := d.scrape()
	if err != nil {
		return err
	}
	remote, err := mint.Dial(d.rpcAddr, co.nodes, mint.Defaults())
	if err != nil {
		return err
	}
	remoteP50, err := fill(remote)
	ts := remote.TransportStats()
	_ = remote.Close()
	if err != nil {
		return fmt.Errorf("remote lab: %w", err)
	}
	after, err := d.scrape()
	if err != nil {
		return err
	}
	local, err := mint.Open(co.nodes, mint.Config{Shards: labShards})
	if err != nil {
		return err
	}
	localP50, err := fill(local)
	_ = local.Close()
	if err != nil {
		return fmt.Errorf("local lab: %w", err)
	}
	r.set("rpc.query_overhead_us", remoteP50-localP50)
	r.set("rpc.envelopes_per_ktrace", (after["mint_rpc_requests_total"]-before["mint_rpc_requests_total"])*1000/float64(n))
	r.set("rpc.retries", float64(ts.Retries))
	r.set("rpc.redials", float64(ts.Redials))
	r.set("rpc.replayed", float64(ts.ReplayedEnvelopes))
	r.set("rpc.dropped", float64(ts.DroppedEnvelopes))
	family := func(name string) float64 {
		var sum, count float64
		for _, st := range stageTotals(before, after) {
			if strings.HasPrefix(st.Stage, name) {
				sum += float64(st.TotalNS)
				count += float64(st.Count)
			}
		}
		return ratio(sum, count) / 1e3
	}
	r.set("rpc.queue_wait_us", family("mint_rpc_queue_wait_seconds"))
	r.set("rpc.serve_us", family("mint_rpc_op_seconds"))

	// The same OTLP requests over HTTP and straight into an in-process
	// cluster; the difference is the HTTP front door's cost.
	reqs, err := buildOTLPRequests(oco)
	if err != nil {
		return err
	}
	reqs = reqs[:min(len(reqs), e.count(40, 1))]
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	inproc := mint.NewCluster([]string{otlpNode}, mint.Defaults())
	defer inproc.Close()
	var overHTTP, direct []float64
	for pass := 0; pass < 2; pass++ { // the first pass warms both parsers
		overHTTP, direct = overHTTP[:0], direct[:0]
		for _, rq := range reqs {
			s := time.Now()
			resp, err := client.Post("http://"+d.httpAddr+"/v1/traces", "application/x-protobuf", bytes.NewReader(rq.body))
			if err != nil {
				return fmt.Errorf("lab OTLP post: %w", err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			overHTTP = append(overHTTP, float64(time.Since(s))/1e3)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("lab OTLP post: status %d", resp.StatusCode)
			}
			s = time.Now()
			if err := inproc.CaptureOTLPProto(otlpNode, rq.body); err != nil {
				return fmt.Errorf("lab OTLP in-process capture: %w", err)
			}
			direct = append(direct, float64(time.Since(s))/1e3)
		}
	}
	r.set("mint.http_overhead_us", median(overHTTP)-median(direct))
	return d.stop()
}
