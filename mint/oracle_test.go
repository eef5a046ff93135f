package mint_test

// The parity oracle: Mint must capture every request and answer it the same
// way in every deployment — serial, sharded, reopened, resharded, remote and
// faulted. TestParityOracle runs seeded histories of captures, sampling
// marks, flushes and restarts through a table of rigs and checks every rig,
// after every flush or reopen, against two things:
//
//   - a naive reference store (refStore) fed the reports that rig's
//     collectors deliver, which decides each trace's hit kind and sampling
//     reason, the pattern counts and the storage bytes by component;
//   - the serial rig, which is the reference for the rendered trace text,
//     BatchAnalyze and FindTraces of every rig whose agents live through the
//     same history (a crash restarts the durable rig's agents, so that rig
//     is held to its own pre-crash answers at each reopen instead).
//
// A failing history reports its seed, the rig and the first diverging op,
// then shrinks to the shortest failing prefix. The mutation subtests check
// the oracle itself: a store fed a corrupted report stream must be caught.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/chaos"
	"repro/internal/collector"
	"repro/internal/parser"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/mint"
)

// ---- the reference store ----

type refPair struct{ node, pattern string }

type refSeg struct {
	f    *bloom.Filter
	live bool
}

// refStore is the reference: one mutex and plain maps, no shards, WAL,
// cache, segment index or rpc. It is a collector.Sink.
type refStore struct {
	mu     sync.Mutex
	spans  map[string]*parser.SpanPattern             // first wins
	topos  map[string]*topo.Pattern                   // first wins
	segs   map[refPair][]*refSeg                      // arrival order; only the last can be live
	params map[string]map[string][]*parser.ParsedSpan // trace -> node -> spans
	marks  map[string]string                          // first wins

	paramBytes int64
	// erased counts full filters that arrived beside a live segment they do
	// not cover: the live segment holds IDs of an earlier agent generation.
	erased int
}

func newRefStore() *refStore {
	return &refStore{
		spans: map[string]*parser.SpanPattern{}, topos: map[string]*topo.Pattern{},
		segs: map[refPair][]*refSeg{}, params: map[string]map[string][]*parser.ParsedSpan{},
		marks: map[string]string{},
	}
}

func (r *refStore) AcceptPatterns(rep *wire.PatternReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range rep.SpanPatterns {
		if r.spans[p.ID] == nil {
			r.spans[p.ID] = p
		}
	}
	for _, p := range rep.TopoPatterns {
		if r.topos[p.ID] == nil {
			r.topos[p.ID] = p
		}
	}
}

// AcceptBloom applies the full/delta rule. A periodic report is a delta OR-ed
// into the pair's live segment, or starts one. A full filter takes over the
// live segment when it covers it (the live segment holds its own deltas);
// otherwise both stay, sealed.
func (r *refStore) AcceptBloom(rep *wire.BloomReport, full bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := refPair{rep.Node, rep.PatternID}
	segs := r.segs[k]
	var live *refSeg
	if n := len(segs); n > 0 && segs[n-1].live {
		live = segs[n-1]
	}
	f := rep.Filter.Snapshot()
	switch {
	case full && live != nil && f.Covers(live.f):
		*live = refSeg{f: f}
	case full:
		if live != nil {
			live.live = false
			r.erased++
		}
		r.segs[k] = append(segs, &refSeg{f: f})
	case live != nil && live.f.Union(f) == nil:
	default:
		if live != nil {
			live.live = false // another shape cannot merge
		}
		r.segs[k] = append(segs, &refSeg{f: f, live: true})
	}
}

func (r *refStore) AcceptParams(rep *wire.ParamsReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.params[rep.TraceID] == nil {
		r.params[rep.TraceID] = map[string][]*parser.ParsedSpan{}
	}
	r.params[rep.TraceID][rep.Node] = append(r.params[rep.TraceID][rep.Node], rep.Spans...)
	for _, sp := range rep.Spans {
		r.paramBytes += int64(sp.Size())
	}
}

func (r *refStore) MarkSampled(traceID, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.marks[traceID]; !ok {
		r.marks[traceID] = reason
	}
}

// answer is the hit kind and reason a correct store owes for id: exact when
// the trace is marked and some of its parameters name a stored span pattern;
// approximate when a segment of a stored, non-empty topo pattern claims it
// (self-trace segments only answer self-trace IDs); a miss otherwise.
func (r *refStore) answer(id string) (mint.HitKind, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	reason, marked := r.marks[id]
	if marked {
		for _, spans := range r.params[id] {
			for _, sp := range spans {
				if r.spans[sp.PatternID] != nil {
					return mint.ExactHit, reason
				}
			}
		}
	}
	self := strings.HasPrefix(id, telemetry.SelfTracePrefix)
	for k, segs := range r.segs {
		p := r.topos[k.pattern]
		if p == nil || (p.Entry == "" && len(p.Edges) == 0) || (k.node == telemetry.SelfNode && !self) {
			continue
		}
		for _, s := range segs {
			if s.f.Contains(id) {
				return mint.PartialHit, reason
			}
		}
	}
	return mint.Miss, reason
}

// stats is the backend half of mint.Stats a correct store reports.
func (r *refStore) stats() mint.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := mint.Stats{SpanPatterns: len(r.spans), TopoPatterns: len(r.topos), ParamBytes: r.paramBytes}
	for _, p := range r.spans {
		s.PatternBytes += int64(p.Size())
	}
	for _, p := range r.topos {
		s.PatternBytes += int64(p.Size())
	}
	for _, segs := range r.segs {
		for _, seg := range segs {
			s.BloomBytes += int64(seg.f.MarshaledSize())
		}
	}
	s.StorageBytes = s.PatternBytes + s.BloomBytes + s.ParamBytes
	return s
}

// diff returns how a's answers disagree with the reference, or "".
func (r *refStore) diff(a answers, ids []string) string {
	misses := 0
	for i, id := range ids {
		kind, reason := r.answer(id)
		if kind == mint.Miss {
			misses++
		}
		if want := fmt.Sprintf("%s reason=%q\n", kind, reason); !strings.HasPrefix(a.queries[i], want) {
			return fmt.Sprintf("Query(%s) answers %q, the reference %q", id, firstLine(a.queries[i]), firstLine(want))
		}
	}
	if a.miss != misses {
		return fmt.Sprintf("BatchAnalyze counts %d misses, the reference %d", a.miss, misses)
	}
	g, w := a.stats, r.stats()
	if g.SpanPatterns != w.SpanPatterns || g.TopoPatterns != w.TopoPatterns || g.PatternBytes != w.PatternBytes ||
		g.BloomBytes != w.BloomBytes || g.ParamBytes != w.ParamBytes || g.StorageBytes != w.StorageBytes {
		return fmt.Sprintf("Stats %s, the reference %s", statsLine(g), statsLine(w))
	}
	return ""
}

func firstLine(s string) string { return strings.TrimSuffix(strings.SplitN(s, "\n", 2)[0], "\n") }

func statsLine(s mint.Stats) string {
	return fmt.Sprintf("(span %d, topo %d patterns; %d B = patterns %d + blooms %d + params %d)",
		s.SpanPatterns, s.TopoPatterns, s.StorageBytes, s.PatternBytes, s.BloomBytes, s.ParamBytes)
}

// ---- what a cluster answers ----

// answers is what every read path of a cluster says about a set of trace
// IDs, in a form two clusters can be compared by.
type answers struct {
	queries []string // Query: kind, reason and the serialized trace
	many    []string // QueryMany, rendered the same way
	batch   *mint.BatchStats
	miss    int
	finds   [][]mint.FoundTrace
	stats   mint.Stats
}

func renderResult(res mint.QueryResult) string {
	s := fmt.Sprintf("%s reason=%q\n", res.Kind, res.Reason)
	if res.Trace != nil {
		s += res.Trace.Serialize()
	}
	return s
}

// searchFilters are the predicate searches answers replays.
func searchFilters(ids []string) []mint.Filter {
	return []mint.Filter{
		{Service: "checkout", Candidates: ids},
		{ErrorsOnly: true, Candidates: ids},
		{Operation: "GET /product", Candidates: ids, Limit: 40},
		{MinDurationUS: 50_000, Candidates: ids, Limit: 50},
		{SampledOnly: true},
	}
}

func readAnswers(c *mint.Cluster, ids []string) answers {
	a := answers{stats: c.Stats()}
	for _, id := range ids {
		a.queries = append(a.queries, renderResult(c.Query(id)))
	}
	for _, res := range c.QueryMany(ids) {
		a.many = append(a.many, renderResult(res))
	}
	a.batch, a.miss = c.BatchAnalyze(ids)
	for _, f := range searchFilters(ids) {
		a.finds = append(a.finds, c.FindTraces(f))
	}
	return a
}

// diff returns the first read path on which b disagrees with a, or "".
// Stats are compared only when withStats is set.
func (a answers) diff(b answers, ids []string, withStats bool) string {
	for i := range a.queries {
		if a.queries[i] != b.queries[i] {
			return fmt.Sprintf("Query(%s):\nwant:\n%s\ngot:\n%s", ids[i], a.queries[i], b.queries[i])
		}
		if a.many[i] != b.many[i] {
			return fmt.Sprintf("QueryMany[%d] (%s):\nwant:\n%s\ngot:\n%s", i, ids[i], a.many[i], b.many[i])
		}
	}
	if a.miss != b.miss || !reflect.DeepEqual(a.batch, b.batch) {
		return fmt.Sprintf("BatchAnalyze: want (%+v, %d), got (%+v, %d)", a.batch, a.miss, b.batch, b.miss)
	}
	for i, f := range searchFilters(ids) {
		if !reflect.DeepEqual(a.finds[i], b.finds[i]) {
			return fmt.Sprintf("FindTraces(%+v):\nwant: %v\ngot:  %v", f, a.finds[i], b.finds[i])
		}
	}
	if withStats && (a.stats.SpanPatterns != b.stats.SpanPatterns || a.stats.TopoPatterns != b.stats.TopoPatterns ||
		a.stats.StorageBytes != b.stats.StorageBytes || a.stats.PatternBytes != b.stats.PatternBytes ||
		a.stats.BloomBytes != b.stats.BloomBytes || a.stats.ParamBytes != b.stats.ParamBytes) {
		return fmt.Sprintf("Stats: want %s, got %s", statsLine(a.stats), statsLine(b.stats))
	}
	return ""
}

// assertSameAnswers fails t unless got answers every read path for ids
// exactly as want does, storage accounting and pattern counts included.
func assertSameAnswers(t *testing.T, label string, want, got *mint.Cluster, ids []string) {
	t.Helper()
	if d := readAnswers(want, ids).diff(readAnswers(got, ids), ids, true); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
	if err := got.Err(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// ---- histories ----

type opKind uint8

const (
	opCapture      opKind = iota // Capture the next corpus trace (every third as OTLP/JSON)
	opCaptureAsync               // CaptureAsync the next corpus trace
	opMark                       // MarkSampled a trace captured before the last flush
	opFlush                      // Flush, then check
	opRestart                    // durable: crash and reopen resharded; remote: restart the server; else Flush. Then check.
)

type histOp struct {
	kind  opKind
	trace int // opMark: index of the marked trace in the corpus
}

func (o histOp) String() string {
	switch o.kind {
	case opCapture:
		return "capture"
	case opCaptureAsync:
		return "capture-async"
	case opMark:
		return fmt.Sprintf("mark #%d", o.trace)
	case opFlush:
		return "flush"
	}
	return "restart"
}

// history is one seeded run: the corpus and the ops over it. Captures take
// the corpus in order, so the traces a prefix captured are a corpus prefix.
type history struct {
	seed         int64
	nodes        []string
	warm, traces []*mint.Trace
	ops          []histOp
}

const (
	oracleWarm   = 150
	oracleTraces = 200
)

func genHistory(seed int64, n int) *history {
	sys := sim.OnlineBoutique(seed)
	h := &history{seed: seed, nodes: sys.Nodes, warm: sim.GenTraces(sys, oracleWarm), traces: sim.GenTraces(sys, n)}
	rng := rand.New(rand.NewSource(seed))
	captured, flushed := 0, 0
	for captured < n {
		switch p := rng.Intn(200); {
		case p < 2 && captured > 0:
			h.ops, flushed = append(h.ops, histOp{kind: opRestart}), captured
		case p < 5:
			h.ops, flushed = append(h.ops, histOp{kind: opFlush}), captured
		case p < 24 && flushed > 0:
			h.ops = append(h.ops, histOp{kind: opMark, trace: rng.Intn(flushed)})
		case p < 112:
			h.ops, captured = append(h.ops, histOp{kind: opCapture}), captured+1
		default:
			h.ops, captured = append(h.ops, histOp{kind: opCaptureAsync}), captured+1
		}
	}
	return h
}

// ---- rigs ----

type rigSpec struct {
	name string
	cfg  mint.Config
	// durable: the cluster has a DataDir, and a restart crashes it (its
	// agents die with whatever they had not uploaded) and reopens it with
	// another shard count.
	durable bool
	// remote: the cluster is dialed into a loopback server with a DataDir,
	// which a restart stops and reopens with another shard count.
	remote bool
	chaos  bool // remote, through the fault-injection proxy
}

// oracleRigs is the rig table. The first row is the serial reference.
var oracleRigs = []rigSpec{
	{name: "serial", cfg: mint.Config{Shards: 1, QueryCacheSize: -1, QueryWorkers: -1}},
	// A query cache smaller than a history evicts; the durable and
	// self_trace rows keep the default, so their QueryMany pass is warm.
	{name: "sharded_async", cfg: mint.Config{Shards: 4, IngestWorkers: 2, QueryWorkers: 8, QueryCacheSize: 64}},
	// Small Bloom filters fill every ~13 IDs, so the full/delta rule runs in
	// every history, and a restarted agent's fill can meet its
	// predecessor's live segment (pinned below).
	{name: "durable", durable: true, cfg: mint.Config{Shards: 2, IngestWorkers: 2, BloomBufferBytes: 16, SnapshotEveryBytes: 16 << 10}},
	{name: "remote", remote: true},
	{name: "remote_chaos", remote: true, chaos: true, cfg: mint.Config{IngestWorkers: 2}},
	// Self spans change the storage and pattern counts, which the rig's own
	// reference accounts for; its real-trace answers match the serial rig's.
	{name: "self_trace", cfg: mint.Config{Shards: 2, SelfTrace: true}},
}

// renderFaithful reports whether the rig's answers must match the serial
// rig's text: its agents run the serial rig's config through the same
// history, never restarted.
func (s rigSpec) renderFaithful() bool { return !s.durable }

// tee delivers each report to the rig's reference and to the cluster's store,
// until a crash cuts both: what the crashed process had not delivered is
// lost, and what it had is in both.
type tee struct {
	ref   *refStore
	store collector.Sink
	mu    sync.RWMutex
	cut   bool
}

func (t *tee) deliver(f func(collector.Sink)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.cut {
		f(t.ref)
		f(t.store)
	}
}

func (t *tee) AcceptPatterns(r *wire.PatternReport) {
	t.deliver(func(s collector.Sink) { s.AcceptPatterns(r) })
}
func (t *tee) AcceptBloom(r *wire.BloomReport, full bool) {
	t.deliver(func(s collector.Sink) { s.AcceptBloom(r, full) })
}
func (t *tee) AcceptParams(r *wire.ParamsReport) {
	t.deliver(func(s collector.Sink) { s.AcceptParams(r) })
}
func (t *tee) MarkSampled(id, reason string) {
	t.deliver(func(s collector.Sink) { s.MarkSampled(id, reason) })
}

// mutation corrupts the report stream between the tee and the store; it is
// applied once per cluster a rig opens.
type mutation func(store collector.Sink) collector.Sink

type rig struct {
	spec   rigSpec
	tb     testing.TB
	h      *history
	ref    *refStore
	mutate mutation
	tee    *tee
	c      *mint.Cluster
	dir    string
	shards int // durable and remote: the backend's current shard count

	srv  *rpc.Server   // remote: the loopback server
	back *mint.Cluster // remote: the server's backend cluster
	addr string        // remote: the server's address, kept across restarts
	px   *chaos.Proxy
	shed int64 // remote: envelopes the servers shed, over all restarts
}

func newRig(tb testing.TB, spec rigSpec, h *history, mutate mutation) *rig {
	tb.Helper()
	r := &rig{spec: spec, tb: tb, h: h, ref: newRefStore(), mutate: mutate, shards: 4}
	if spec.durable || spec.remote {
		r.dir = tb.TempDir()
	}
	if spec.durable {
		r.shards = spec.cfg.Shards
	}
	if spec.remote {
		r.startServer("127.0.0.1:0")
		if spec.chaos {
			px, err := chaos.New(r.addr, chaos.Config{
				Seed: h.seed, ResetProb: 0.01, TruncateProb: 0.02, DelayProb: 0.05, MaxDelay: 2 * time.Millisecond,
				RefuseProb: 0.25, PartitionEvery: 120 * time.Millisecond, PartitionFor: 30 * time.Millisecond,
			})
			if err != nil {
				tb.Fatalf("%s: chaos.New: %v", spec.name, err)
			}
			r.px = px
		}
	}
	r.open()
	return r
}

func (r *rig) startServer(addr string) {
	back, err := mint.Open(nil, mint.Config{Shards: r.shards, DataDir: r.dir})
	if err != nil {
		r.tb.Fatalf("%s: open server backend: %v", r.spec.name, err)
	}
	srv := rpc.NewServer(back.Backend())
	a, err := srv.Listen(addr)
	if err != nil {
		r.tb.Fatalf("%s: listen: %v", r.spec.name, err)
	}
	r.srv, r.back, r.addr = srv, back, a.String()
}

func (r *rig) stopServer() {
	r.shed += r.srv.Shed()
	r.srv.Close()
	if err := r.back.Close(); err != nil {
		r.tb.Errorf("%s: close server backend: %v", r.spec.name, err)
	}
}

// open assembles the rig's cluster, its store teed into the reference.
func (r *rig) open() {
	cfg := r.spec.cfg
	cfg.DisableSamplers, cfg.HeadSampleRate = true, 0.1
	restore := mint.SetReportTeeForTest(func(s collector.Sink) collector.Sink {
		if r.mutate != nil {
			s = r.mutate(s)
		}
		r.tee = &tee{ref: r.ref, store: s}
		return r.tee
	})
	defer restore()
	var err error
	switch {
	case r.spec.remote:
		addr := r.addr
		if r.px != nil {
			addr = r.px.Addr()
		}
		// Dial fails fast; under the proxy's refusals, retry it the way a
		// supervisor would.
		for attempt := 0; attempt < 50; attempt++ {
			if r.c, err = mint.Dial(addr, r.h.nodes, cfg); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	default:
		if r.spec.durable {
			cfg.DataDir, cfg.Shards = r.dir, r.shards
		}
		r.c, err = mint.Open(r.h.nodes, cfg)
	}
	if err != nil {
		r.tb.Fatalf("%s: open: %v", r.spec.name, err)
	}
	r.c.Warmup(r.h.warm)
}

func (r *rig) close() {
	r.c.Close()
	if r.spec.remote {
		if r.px != nil {
			r.px.Close()
		}
		r.stopServer()
	}
}

// step runs one op; it returns a failure message, or "".
func (r *rig) step(op histOp, ids []string) string {
	var err error
	switch op.kind {
	case opCapture:
		tr := r.h.traces[len(ids)-1]
		if len(ids)%3 != 0 {
			err = r.c.Capture(tr)
			break
		}
		// Every third through the OTLP front door, whose ingest observers
		// feed the self_trace rig's self spans.
		payload, perr := mint.EncodeOTLP(tr.Spans)
		if perr != nil {
			return fmt.Sprintf("%s: %v", op, perr)
		}
		err = r.c.CaptureOTLP(tr.Spans[0].Node, payload)
	case opCaptureAsync:
		err = r.c.CaptureAsync(r.h.traces[len(ids)-1])
	case opMark:
		err = r.c.MarkSampled(r.h.traces[op.trace].TraceID, "oracle")
	case opFlush:
		err = r.c.Flush()
	case opRestart:
		return r.restart(ids)
	}
	if err != nil {
		return fmt.Sprintf("%s: %v", op, err)
	}
	return ""
}

// restart crashes and reopens a durable rig, or restarts a remote rig's
// server, and requires the answers on either side of it to be identical.
// Every other rig flushes.
func (r *rig) restart(ids []string) string {
	var before answers
	switch {
	case r.spec.durable:
		// The crash: nothing more reaches the store, what it holds is made
		// durable, and the cluster is abandoned without Close.
		r.tee.mu.Lock()
		r.tee.cut = true
		r.tee.mu.Unlock()
		if err := r.c.Backend().FlushPersistence(); err != nil {
			return fmt.Sprintf("crash: WAL flush: %v", err)
		}
		before = readAnswers(r.c, ids)
		r.shards = r.shards%4 + 1
		r.open()
	case r.spec.remote:
		if err := r.c.Flush(); err != nil {
			return fmt.Sprintf("flush before the server restart: %v", err)
		}
		before = readAnswers(r.c, ids)
		redials := r.c.TransportStats().Redials
		r.stopServer()
		r.shards = r.shards%4 + 1
		r.startServer(r.addr)
		// The client keeps its agents and journal and redials the address.
		for deadline := time.Now().Add(10 * time.Second); r.c.TransportStats().Redials == redials; {
			if time.Now().After(deadline) {
				return "the client never redialed the restarted server"
			}
			time.Sleep(2 * time.Millisecond)
		}
	default:
		if err := r.c.Flush(); err != nil {
			return fmt.Sprintf("restart: %v", err)
		}
		return ""
	}
	if d := before.diff(readAnswers(r.c, ids), ids, true); d != "" {
		return "answers changed across the restart: " + d
	}
	return ""
}

// check compares the rig with its reference and, where it is render-
// faithful, with the serial rig's answers.
func (r *rig) check(ids []string, serial *answers, serialNet int64) (answers, string) {
	a := readAnswers(r.c, ids)
	if err := r.c.Err(); err != nil {
		return a, fmt.Sprintf("Err: %v", err)
	}
	for i := range ids {
		if a.many[i] != a.queries[i] {
			return a, fmt.Sprintf("QueryMany[%d] (%s) differs from Query:\n%s\nvs\n%s", i, ids[i], a.many[i], a.queries[i])
		}
	}
	if d := r.ref.diff(a, ids); d != "" {
		return a, d
	}
	if serial == nil || !r.spec.renderFaithful() {
		return a, ""
	}
	if d := serial.diff(a, ids, false); d != "" {
		return a, "differs from the serial rig: " + d
	}
	if r.spec.cfg.SelfTrace {
		return a, "" // self reports are metered too
	}
	net := r.c.NetworkBytes()
	if r.spec.cfg.IngestWorkers == 0 && net != serialNet {
		return a, fmt.Sprintf("network bytes %d, the serial rig's %d", net, serialNet)
	}
	// Batching envelopes amortize framing, so they can only shrink it.
	if net > serialNet || net < serialNet*9/10 {
		return a, fmt.Sprintf("network bytes %d, implausible against the serial rig's %d", net, serialNet)
	}
	return a, ""
}

// divergence is a rig's first failed check: after which op, and how.
type divergence struct {
	rig string
	op  int // index into the ops run; len(ops) is the final flush
	msg string
}

// runHistory runs ops through a fresh rig per spec; specs[0] is the serial
// reference for the others' rendered answers. It returns the first
// divergence, or nil. inspect, when set, sees the rigs after a clean run.
func runHistory(tb testing.TB, h *history, ops []histOp, specs []rigSpec, mutate mutation, inspect func([]*rig)) *divergence {
	tb.Helper()
	rigs := make([]*rig, len(specs))
	for i, s := range specs {
		rigs[i] = newRig(tb, s, h, mutate)
		defer rigs[i].close()
	}
	ids := make([]string, 0, len(h.traces))
	checkAll := func(at int) *divergence {
		// Every check also probes IDs no history captures.
		probes := append(ids[:len(ids):len(ids)], "never-captured-1", "never-captured-2")
		var serial *answers
		var serialNet int64
		for i, r := range rigs {
			a, msg := r.check(probes, serial, serialNet)
			if msg != "" {
				return &divergence{rig: r.spec.name, op: at, msg: msg}
			}
			if i == 0 {
				serial, serialNet = &a, r.c.NetworkBytes()
			}
		}
		return nil
	}
	for i, op := range append(ops[:len(ops):len(ops)], histOp{kind: opFlush}) {
		if op.kind == opCapture || op.kind == opCaptureAsync {
			ids = append(ids, h.traces[len(ids)].TraceID)
		}
		for _, r := range rigs {
			if msg := r.step(op, ids); msg != "" {
				return &divergence{rig: r.spec.name, op: i, msg: msg}
			}
		}
		if op.kind == opFlush || op.kind == opRestart {
			if d := checkAll(i); d != nil {
				return d
			}
		}
	}
	if inspect != nil {
		inspect(rigs)
	}
	return nil
}

// checkHistory runs h through the rigs and reports a divergence on tb: the
// seed, the rig and the first diverging op, then the shortest failing
// prefix, found by re-running prefixes on the serial and failing rigs only.
func checkHistory(tb testing.TB, h *history, specs []rigSpec, mutate mutation, inspect func([]*rig)) {
	tb.Helper()
	d := runHistory(tb, h, h.ops, specs, mutate, inspect)
	if d == nil {
		return
	}
	opName := "the final flush"
	if d.op < len(h.ops) {
		opName = h.ops[d.op].String()
	}
	failing := specs[:1]
	for _, s := range specs[1:] {
		if s.name == d.rig {
			failing = append(failing, s)
		}
	}
	lo, hi := 0, min(d.op+1, len(h.ops)) // ops[:lo] assumed clean, ops[:hi] fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if runHistory(tb, h, h.ops[:mid], failing, mutate, nil) != nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	tb.Errorf("seed %d, rig %s: first divergence after op %d (%s): %s\nshortest failing prefix: ops[:%d], ending in %s",
		h.seed, d.rig, d.op, opName, d.msg, hi, h.ops[hi-1])
}

// oracleTimers shortens the rpc client's flush and redial machinery, so a
// fault window or a server restart takes many redial cycles, while the retry
// deadline stays generous enough that convergence never races it.
func oracleTimers(t *testing.T) {
	t.Helper()
	t.Cleanup(rpc.SetTimersForTest(rpc.TestTimers{
		Flush:         5 * time.Millisecond,
		RetryDeadline: 20 * time.Second,
		RedialBase:    5 * time.Millisecond,
		RedialMax:     50 * time.Millisecond,
		RedialDial:    500 * time.Millisecond,
		RedialTick:    2 * time.Millisecond,
	}))
}

func TestParityOracle(t *testing.T) {
	oracleTimers(t)
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	serial := oracleRigs[0]
	for _, spec := range oracleRigs {
		t.Run(spec.name, func(t *testing.T) {
			specs := []rigSpec{serial, spec}
			if spec.name == serial.name {
				specs = specs[:1]
			}
			for _, seed := range seeds {
				checkHistory(t, genHistory(seed, oracleTraces), specs, nil, func(rigs []*rig) {
					if px := rigs[len(rigs)-1].px; px != nil && (px.Accepted() <= 1 || px.Refused() == 0 || px.Resets() == 0) {
						t.Errorf("seed %d: the fault schedule injected too little: accepted=%d refused=%d resets=%d",
							seed, px.Accepted(), px.Refused(), px.Resets())
					}
				})
			}
		})
	}

	// Pinned seeds for cases a random history may miss.
	t.Run("pinned/crash_after_unflushed_deltas", func(t *testing.T) {
		// A restarted agent uploads into a store that holds its
		// predecessor's live segment, whose IDs its own full filter lacks.
		checkHistory(t, genHistory(6, oracleTraces), []rigSpec{serial, oracleRigs[2]}, nil, func(rigs []*rig) {
			if rigs[1].ref.erased == 0 {
				t.Error("no full filter met a predecessor's live segment")
			}
		})
	})
	t.Run("pinned/remote_shed_head", func(t *testing.T) {
		// A one-envelope ingest queue sheds, and a shed envelope (the head
		// of its window included) must be redelivered, not acknowledged.
		t.Cleanup(rpc.SetIngestQueueDepthForTest(1))
		// Seal an envelope every few reports, so many are in flight at once.
		t.Cleanup(rpc.SetTimersForTest(rpc.TestTimers{Flush: 20 * time.Microsecond}))
		spec := rigSpec{name: "remote_shed", remote: true, cfg: mint.Config{IngestWorkers: 2}}
		checkHistory(t, genHistory(11, oracleTraces), []rigSpec{serial, spec}, nil, func(rigs []*rig) {
			if r := rigs[1]; r.shed+r.srv.Shed() == 0 {
				t.Error("the server never shed an envelope")
			}
		})
	})

	// The oracle must catch what it is meant to catch: each mutation
	// corrupts one report on its way into a store, and only the reference
	// can notice.
	mutated := rigSpec{name: "mutated", cfg: mint.Config{Shards: 2, BloomBufferBytes: 16}}
	for _, m := range []struct {
		name   string
		mutate mutation
	}{
		{"drop_params", dropFirstParams},
		{"replay_delta", replayFirstDelta},
		{"swallow_mark", swallowFirstMark},
	} {
		t.Run("mutation/"+m.name, func(t *testing.T) {
			rec := &recordingTB{TB: t}
			checkHistory(rec, genHistory(5, oracleTraces), []rigSpec{mutated}, m.mutate, nil)
			if len(rec.errs) == 0 {
				t.Fatal("the oracle reported nothing")
			}
			t.Logf("caught: %s", rec.errs[0])
		})
	}
}

// recordingTB records the failures reported on it instead of failing.
type recordingTB struct {
	testing.TB
	errs []string
}

func (r *recordingTB) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// mutSink forwards to the store, except where a mutation intervenes.
type mutSink struct {
	collector.Sink
	mu   sync.Mutex
	done bool
}

// once reports whether this is the first call to claim the mutation.
func (m *mutSink) once() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	first := !m.done
	m.done = true
	return first
}

type dropParams struct{ *mutSink }

func (d dropParams) AcceptParams(r *wire.ParamsReport) {
	if !d.once() {
		d.Sink.AcceptParams(r)
	}
}

// dropFirstParams loses one params report.
func dropFirstParams(s collector.Sink) collector.Sink { return dropParams{&mutSink{Sink: s}} }

type swallowMark struct {
	*mutSink
	id string
}

// MarkSampled drops every mark of the first trace marked: each node that
// head-samples a trace marks it, so dropping a single call changes nothing.
func (d *swallowMark) MarkSampled(id, reason string) {
	d.mu.Lock()
	if d.id == "" {
		d.id = id
	}
	lost := d.id == id
	d.mu.Unlock()
	if !lost {
		d.Sink.MarkSampled(id, reason)
	}
}

// swallowFirstMark loses one trace's sampling mark.
func swallowFirstMark(s collector.Sink) collector.Sink {
	return &swallowMark{mutSink: &mutSink{Sink: s}}
}

type replayDelta struct {
	*mutSink
	last map[refPair]*wire.BloomReport
}

func (d *replayDelta) AcceptBloom(r *wire.BloomReport, full bool) {
	d.Sink.AcceptBloom(r, full)
	d.mu.Lock()
	defer d.mu.Unlock()
	k := refPair{r.Node, r.PatternID}
	switch prev := d.last[k]; {
	case !full:
		d.last[k] = &wire.BloomReport{Node: r.Node, PatternID: r.PatternID, Filter: r.Filter.Snapshot()}
	case prev != nil && !d.done:
		// The pair's last delta arrives a second time, after the fill that
		// retired it.
		d.done = true
		d.Sink.AcceptBloom(prev, false)
	}
}

// replayFirstDelta applies one Bloom delta twice.
func replayFirstDelta(s collector.Sink) collector.Sink {
	return &replayDelta{mutSink: &mutSink{Sink: s}, last: map[refPair]*wire.BloomReport{}}
}
