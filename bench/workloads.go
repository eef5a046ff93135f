package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/mint"
)

// env is what one run hands its workload.
type env struct {
	seed     int64
	seconds  float64 // planned length of the timed section
	scale    float64 // 1, or smokeScale
	tr       *tracer // non-nil in a traced run
	root     string  // repository root
	buildDir string  // .bench_build
	outDir   string  // bench/out
	tmpRoot  string  // this process's scratch under outDir
	mintdBin string  // set once a workload needed it
	log      io.Writer
	tmpSeq   int
}

// count turns a planning rate and a share of the run into a fixed op count.
func (e *env) count(rate, share float64) int {
	return max(1, int(rate*share*e.seconds*e.scale))
}

// blocks is the number of search blocks (reader.findBlock) of a section.
func (e *env) blocks() int {
	return max(2, int(findBlocks*e.scale*e.seconds/defaultSeconds))
}

// every scales a cadence (flush interval, preload size) for smoke runs.
func (e *env) every(n int) int { return max(1, int(float64(n)*e.scale)) }

// cap is the wall-clock bound of a section planned to take share of the run.
func (e *env) cap(share float64) time.Time {
	return time.Now().Add(time.Duration(share*e.seconds*capFactor*float64(time.Second)) + 2*time.Second)
}

func (e *env) tmpDir(name string) (string, error) {
	e.tmpSeq++
	dir := filepath.Join(e.tmpRoot, fmt.Sprintf("%s-%d", name, e.tmpSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

func (e *env) needMintd() error {
	if e.mintdBin != "" {
		return nil
	}
	bin, took, err := buildMintd(e.root, e.buildDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.log, "# built mintd in %.2fs (not part of setup_s)\n", took.Seconds())
	e.mintdBin = bin
	return nil
}

// instance is one set-up of a workload. measure runs the timed section and
// the oracle; close releases clusters, children and temp dirs and is safe
// after a failed or skipped measure.
type instance interface {
	measure(e *env, r *rec) error
	close()
}

type workload struct {
	name  string
	why   string
	mintd bool
	setUp func(e *env, r *rec) (instance, error)
}

var workloads = []workload{
	{"capture_serial", "agent-bound headline path: one client, in-process Capture, no OTLP, rpc, WAL or concurrent reads", false, setUpCaptureSerial},
	{"query_readonly", "read path only: Zipf queries over a preloaded store 4x the query cache, QueryMany and FindTraces; capture-side changes must not move it", false, setUpQueryReadonly},
	{"mixed_durable", "writes beside reads on one durable sharded store: open-loop Capture, then closed-loop CaptureAsync, with WAL fsync against a closed-loop reader, then reopen", false, setUpMixedDurable},
	{"otlp_mintd", "the front door: OTLP/protobuf over one HTTP connection into a real one-processor mintd child, open loop then closed loop, verified after a restart", true, setUpOTLPMintd},
	{"rpc_mintd", "the paper's deployment: client-side agents reporting over internal/rpc to a mintd child, then queries over the same transport", true, setUpRPCMintd},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload sets the workload up setupReps times (setup_s is the median),
// measures the last set-up, and returns the record. Every set-up and the
// measurement start from a collected heap: what the previous set-up left
// behind is otherwise collected at a moment of the runtime's choosing, inside
// one timed section or the next.
func runWorkload(e *env, w workload) (*rec, error) {
	r := newRec()
	if w.mintd {
		if err := e.needMintd(); err != nil {
			return r, err
		}
	}
	resetPeakRSS()
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setUp(e, r); err != nil {
			return r, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))
	runtime.GC()
	return r, inst.measure(e, r)
}

// captureLoop is the closed-loop capture section shared by the library
// workloads: stamp outside the timed call, Capture inside, Flush every
// flushEvery traces.
func captureLoop(tr *tracer, r *rec, c *mint.Cluster, co *corpus, from, n, flushEvery int, async bool, cpu func() time.Duration, deadline time.Time, flushed *atomic.Int64) loopStats {
	var cur *mint.Trace
	flush := func(done int) {
		s := time.Now()
		if err := c.Flush(); err != nil {
			r.fail("flush after op %d: %v", from+done, err)
		}
		tr.op("flush", from+done, s, time.Now())
		if flushed != nil {
			flushed.Store(int64(from + done))
		}
	}
	l := loop{
		n: n, lapEvery: flushEvery, deadline: deadline, cpu: cpu,
		prep: func(i int) { cur = co.stamp(from + i) },
		do: func(i int) {
			var err error
			if async {
				err = c.CaptureAsync(cur)
			} else {
				err = c.Capture(cur)
			}
			if err != nil {
				r.fail("capture op %d: %v", from+i, err)
			}
		},
		lapEnd: func(done int) bool {
			flush(done)
			return true
		},
	}
	if tr != nil {
		l.record = func(i int, s, t time.Time) { tr.op("capture", from+i, s, t) }
	}
	st := l.run()
	r.attempt(int64(st.done + st.ends))
	if st.capped {
		r.flag("capture section hit its wall-clock cap after %d of %d ops; count-based ratios are off plan", st.done, n)
		flush(st.done) // the cut-off loop skipped its last Flush; readers and ratios need one
	}
	return st
}

// reportCapture writes the capture metrics of a closed-loop section.
func reportCapture(r *rec, st loopStats) {
	r.setLatency("capture_p50_us", "capture_p99_us", summarize(st.lat))
	wall, cpu := st.perOp()
	r.set("capture_traces_per_s", ratio(1, wall))
	r.set("cpu_ms_per_ktrace", cpu*1e6)
}

func reportRatios(r *rec, stats mint.Stats, raw int64) {
	r.set("storage_ratio", ratio(float64(stats.StorageBytes), float64(raw)))
	r.set("network_ratio", ratio(float64(stats.NetworkBytes), float64(raw)))
}

// checkOverhead records the closed-loop generator's share of wall time and
// flags the run when the generator shaped the numbers.
func checkOverhead(r *rec, what string, o, limit float64) {
	r.set("gen.overhead_ratio", o)
	if o > limit {
		r.markInvalid("%s generator spent %.1f%% of wall time outside the program (limit %.0f%%)", what, o*100, limit*100)
	}
}

// checkLag flags an open-loop section whose generator itself ran late.
func checkLag(r *rec, what string, st loopStats, rate float64) {
	if len(st.lag) == 0 {
		return
	}
	period := 1e6 / rate // µs
	if m := median(st.lag); m > maxLagShare*period {
		r.markInvalid("%s generator ran a median %.0fus late, over %.0f%% of the %.0fus period", what, m, maxLagShare*100, period)
	}
}

func stagesSince(e *env, c *mint.Cluster, before map[string]stageTotal) {
	if e.tr != nil {
		e.tr.addStages(diffTotals(before, registryTotals(c.Telemetry())))
	}
}

// ---- capture_serial ----

type captureSerial struct {
	co *corpus
	c  *mint.Cluster
}

func setUpCaptureSerial(e *env, _ *rec) (instance, error) {
	co := newCorpus(e.seed, poolTraces, false)
	c := mint.NewCluster(co.nodes, mint.Defaults())
	c.Warmup(co.warm)
	return &captureSerial{co, c}, nil
}

func (w *captureSerial) close() { _ = w.c.Close() }

func (w *captureSerial) measure(e *env, r *rec) error {
	flush := e.every(flushSerial)
	n := roundTo(e.count(planCaptureSerial, 0.60), flush)
	before := registryTotals(w.c.Telemetry())
	st := captureLoop(e.tr, r, w.c, w.co, 0, n, flush, false, selfCPU, e.cap(0.60), nil)
	reportCapture(r, st)
	checkOverhead(r, "capture", st.overhead(), maxOverheadShare)
	reportRatios(r, w.c.Stats(), w.co.raw(st.done))

	rd := &reader{
		c: w.c, co: w.co, rec: r, tr: e.tr, rng: rand.New(rand.NewSource(e.seed)),
		pick:       func(rng *rand.Rand) int { return rng.Intn(st.done) },
		findBlocks: e.blocks(),
	}
	runtime.GC()
	rd.run(e.count(planQueryCold, 0.22), e.cap(0.40), nil)
	stagesSince(e, w.c, before)
	rd.verifyDeep()
	rd.report()
	if err := w.c.Err(); err != nil {
		r.fail("cluster error: %v", err)
	}
	r.set("peak_rss_mb", peakRSSMB(os.Getpid()))
	return nil
}

// ---- query_readonly ----

type queryReadonly struct {
	co     *corpus
	c      *mint.Cluster
	stored int
	stats  mint.Stats
}

func setUpQueryReadonly(e *env, r *rec) (instance, error) {
	co := newCorpus(e.seed, poolTraces, false)
	c := mint.NewCluster(co.nodes, mint.Defaults())
	c.Warmup(co.warm)
	n := e.every(preloadReadonly)
	// The preload is this workload's capture section: every set-up's preload
	// is timed per op here and pooled in the record (one preload is a second
	// and a half of capturing, too little to repeat), and measure reports
	// the pool as capture_*.
	st := captureLoop(nil, r, c, co, 0, n, max(1, n/4), false, selfCPU, time.Now().Add(time.Minute), nil)
	r.addPreload(st)
	return &queryReadonly{co: co, c: c, stored: st.done, stats: c.Stats()}, nil
}

func (w *queryReadonly) close() { _ = w.c.Close() }

func (w *queryReadonly) measure(e *env, r *rec) error {
	stored := w.stored
	reportCapture(r, r.preload)
	reportRatios(r, w.stats, w.co.raw(stored))

	n := e.count(planQueryZipf, 0.25)
	order := zipfOrder(e.seed, zipfS, stored, n*3) // QueryMany draws 64 per op
	next := 0
	before := registryTotals(w.c.Telemetry())
	rd := &reader{
		c: w.c, co: w.co, rec: r, tr: e.tr, rng: rand.New(rand.NewSource(e.seed)),
		pick: func(*rand.Rand) int {
			op := int(order[next%len(order)])
			next++
			return op
		},
		manyEvery:  20,
		findBlocks: e.blocks(),
		// A hundred thousand exact hits, QueryMany's included: every 8th
		// kept would add a third to the heap of a workload whose subject is
		// the read path.
		deepEvery: 64,
	}
	rd.run(n, e.cap(1.0), nil)
	stagesSince(e, w.c, before)
	rd.verifyDeep()
	rd.report()
	// Warm hits take ~300ns, the same order as two clock reads and an ID
	// pick, so this workload's limit is twice the general one.
	checkOverhead(r, "query", rd.overhead(), 2*maxOverheadShare)
	if err := w.c.Err(); err != nil {
		r.fail("cluster error: %v", err)
	}
	r.set("peak_rss_mb", peakRSSMB(os.Getpid()))
	return nil
}

// ---- mixed_durable ----

type mixedDurable struct {
	co  *corpus
	c   *mint.Cluster
	dir string
	cfg mint.Config
}

func setUpMixedDurable(e *env, _ *rec) (instance, error) {
	dir, err := e.tmpDir("mixed")
	if err != nil {
		return nil, err
	}
	co := newCorpus(e.seed, poolTraces, false)
	cfg := mint.Config{Shards: 4, IngestWorkers: 2, DataDir: dir, SnapshotEveryBytes: snapshotEveryBytes}
	c, err := mint.Open(co.nodes, cfg)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	c.Warmup(co.warm)
	w := &mixedDurable{co: co, c: c, dir: dir, cfg: cfg}
	for i := 0; i < e.every(preloadLive); i++ {
		if err := c.CaptureAsync(co.stamp(i)); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := c.Flush(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *mixedDurable) close() {
	_ = w.c.Close()
	_ = os.RemoveAll(w.dir)
}

// recentReader builds mixed_durable's reader: uniform over the most recent
// recentWindow flushed IDs.
func recentReader(e *env, r *rec, c *mint.Cluster, co *corpus, flushed *atomic.Int64) *reader {
	recent := func() (int, int) {
		to := int(flushed.Load())
		return max(0, to-e.every(recentWindow)), to
	}
	return &reader{
		c: c, co: co, rec: r, tr: e.tr, rng: rand.New(rand.NewSource(e.seed)),
		pick: func(rng *rand.Rand) int {
			from, to := recent()
			return from + rng.Intn(to-from)
		},
		yield: true,
	}
}

func (w *mixedDurable) measure(e *env, r *rec) error {
	base := e.every(preloadLive)
	flush := e.every(flushMixed)
	nA := roundTo(e.count(mixedRate, 0.50), flush)
	nB := roundTo(e.count(planCaptureAsync, 0.30), flush)
	var flushed atomic.Int64
	flushed.Store(int64(base))
	var stop atomic.Bool
	before := registryTotals(w.c.Telemetry())

	var stA, stB loopStats
	var statsA mint.Stats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		var cur *mint.Trace
		a := loop{
			n: nA, lapEvery: flush, deadline: e.cap(0.50), rate: mixedRate,
			prep: func(i int) { cur = w.co.stamp(base + i) },
			// Synchronous Capture: the op returns when the trace is in the
			// store and its WAL records are appended, so the latency shows
			// the shard locks and the log. CaptureAsync would return at
			// enqueue, in under a microsecond, and show neither.
			do: func(i int) {
				if err := w.c.Capture(cur); err != nil {
					r.fail("capture op %d: %v", base+i, err)
				}
			},
			lapEnd: func(done int) bool {
				if err := w.c.Flush(); err != nil {
					r.fail("flush after op %d: %v", base+done, err)
				}
				flushed.Store(int64(base + done))
				return true
			},
		}
		if e.tr != nil {
			a.record = func(i int, s, t time.Time) { e.tr.op("capture", base+i, s, t) }
		}
		stA = a.run()
		r.attempt(int64(stA.done + stA.ends))
		statsA = w.c.Stats()
		stB = captureLoop(e.tr, r, w.c, w.co, base+stA.done, nB, flush, true, selfCPU, e.cap(0.30), &flushed)
	}()
	rd := recentReader(e, r, w.c, w.co, &flushed)
	rd.run(math.MaxInt32, e.cap(0.80), &stop)
	wg.Wait()
	// Searches run once the writer has stopped: beside it their latency is
	// whatever the lock and cache-invalidation timing of the moment makes it
	// (12 to 30 ms for the same seed), which no bound can hold. They start
	// from a collected heap: the whole of them takes a third of a second, and
	// whether one of the collector's half-second cycles ran beside it or
	// not used to decide between 1 ms and 2 ms.
	runtime.GC()
	for k := e.blocks(); k > 0; k-- {
		rd.findBlock()
	}
	stagesSince(e, w.c, before)

	if stA.capped {
		r.flag("open-loop section hit its wall-clock cap after %d of %d ops", stA.done, nA)
	}
	checkLag(r, "open-loop capture", stA, mixedRate)
	r.set("gen.lag_us_p50", median(stA.lag))
	// p50 from the open loop, timed from due time. The open loop's tail is
	// the length of the few longest stalls of the section (a stall delays
	// every op due during it), which no run length this benchmark can afford
	// makes repeatable; it is printed, and the bounded capture_p99_us is the
	// closed loop's, where a stall delays one op.
	open, closed := summarize(stA.lat), summarize(stB.lat)
	r.setLatency("capture_p50_us", "capture_p99_us", latencySummary{N: closed.N, P50: open.P50, Tail: closed.Tail, TailAt: closed.TailAt})
	r.set("capture_open_loop_p99_us", open.Tail)
	wall, cpu := stB.perOp()
	r.set("capture_traces_per_s", ratio(1, wall))
	r.set("cpu_ms_per_ktrace", cpu*1e6)
	reportRatios(r, statsA, w.co.raw(base+stA.done))
	r.set("gen.overhead_ratio", stB.overhead())
	rd.verifyDeep()
	rd.report()
	if err := w.c.Err(); err != nil {
		r.fail("cluster error: %v", err)
	}
	r.set("peak_rss_mb", peakRSSMB(os.Getpid()))
	return w.reopenCheck(e, r, base+stA.done+stB.done)
}

// reopenCheck closes the store, reopens it from disk and requires 1000
// sampled answers to come back byte-identical.
func (w *mixedDurable) reopenCheck(e *env, r *rec, total int) error {
	rng := rand.New(rand.NewSource(e.seed + 1))
	sample := make([]string, e.every(1000))
	for i := range sample {
		sample[i] = w.co.id(rng.Intn(total))
	}
	render := func(res mint.QueryResult) string {
		s := res.Kind.String() + "|" + res.Reason + "|"
		if res.Trace != nil {
			s += res.Trace.Serialize()
		}
		return s
	}
	want := make([]string, len(sample))
	for i, res := range w.c.QueryMany(sample) {
		want[i] = render(res)
	}
	if err := w.c.Close(); err != nil {
		r.fail("close: %v", err)
	}
	cfg := w.cfg
	cfg.IngestWorkers = 0
	reopened, err := mint.Open(w.co.nodes, cfg)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", w.dir, err)
	}
	w.c = reopened
	r.attempt(int64(len(sample)))
	for i, res := range reopened.QueryMany(sample) {
		if got := render(res); got != want[i] {
			r.fail("reopened store answers %s differently:\n  before %q\n  after  %q", sample[i], want[i], got)
		}
	}
	return nil
}
