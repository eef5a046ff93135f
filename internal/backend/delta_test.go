package backend_test

// The delta-upload property: a store fed what each Bloom filter gained since
// its previous periodic upload ends up holding what a store fed the whole
// filter every time would hold. The whole-snapshot store is an oracle written
// here, from filters it fills itself; the stores under test sit behind real
// agents and collectors, in every deployment shape: memory-only and durable
// (then reopened, then reopened with another shard count), local and behind
// the rpc transport with a fault-injecting proxy in the path, where envelopes are cut off and
// redelivered and a delta must still be applied exactly once.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/backend"
	"repro/internal/bloom"
	"repro/internal/chaos"
	"repro/internal/collector"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// deltaBufBytes gives every filter 256 bits: it fills every 26 trace IDs, so
// a pattern's few hundred mounts cross many fills, also between two restarts.
const deltaBufBytes = 32

var deltaNodes = []string{"n1", "n2"}

type deltaOpKind int

const (
	opMount    deltaOpKind = iota // one sub-trace ingested on a node
	opFlush                       // that node's periodic upload
	opFlushAll                    // every node's periodic upload, then the store's durability point
	opRestart                     // the node's agent dies with what it had not uploaded and starts over empty
)

type deltaOp struct {
	kind  deltaOpKind
	node  string
	shape int    // opMount: downstream calls of the sub-trace; one topo pattern per (node, shape)
	id    string // opMount: the trace ID
}

func genDeltaHistory(seed int64, n int) []deltaOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]deltaOp, 0, n)
	for i := 0; i < n; i++ {
		op := deltaOp{node: deltaNodes[rng.Intn(len(deltaNodes))]}
		switch p := rng.Intn(1000); {
		case p < 870:
			// Skewed: shape 0 fills its filter several times, shape 3 never does.
			op.kind, op.id = opMount, fmt.Sprintf("s%d-t%d", seed, i)
			op.shape = [...]int{0, 0, 0, 0, 0, 1, 1, 2, 2, 3}[rng.Intn(10)]
		case p < 960:
			op.kind = opFlush
		case p < 994:
			op.kind = opFlushAll
		default:
			op.kind = opRestart
		}
		ops = append(ops, op)
	}
	return ops
}

func deltaSubTrace(op deltaOp) *trace.SubTrace {
	root := &trace.Span{
		TraceID: op.id, SpanID: op.id + "-r", Service: "svc-" + op.node, Node: op.node,
		Operation: "handle", Kind: trace.KindServer, StartUnix: 1, Duration: 1000, Status: trace.StatusOK,
	}
	spans := []*trace.Span{root}
	for c := 0; c < op.shape; c++ {
		spans = append(spans, &trace.Span{
			TraceID: op.id, SpanID: fmt.Sprintf("%s-c%d", op.id, c), ParentID: root.SpanID,
			Service: root.Service, Node: op.node, Operation: fmt.Sprintf("call-%d", c),
			Kind: trace.KindClient, StartUnix: int64(2 + c), Duration: 100, Status: trace.StatusOK,
		})
	}
	return &trace.SubTrace{TraceID: op.id, Node: op.node, Spans: spans}
}

// deltaRig is one deployment under test: an agent and a collector per node
// in front of a sink.
type deltaRig struct {
	name    string
	sink    collector.Sink
	meter   *wire.Meter
	cols    map[string]*collector.Collector
	barrier func() error // after a flush-all: everything sent is applied, and durable where the store is
}

func newDeltaRig(name string, sink collector.Sink, barrier func() error) *deltaRig {
	r := &deltaRig{name: name, sink: sink, meter: wire.NewMeter(),
		cols: map[string]*collector.Collector{}, barrier: barrier}
	for _, n := range deltaNodes {
		r.start(n)
	}
	return r
}

func (r *deltaRig) start(node string) {
	a := agent.New(node, agent.Config{DisableSamplers: true, BloomBufBytes: deltaBufBytes})
	r.cols[node] = collector.New(a, r.sink, r.meter)
}

// apply runs one op and returns, for a mount, the topo pattern it matched.
func (r *deltaRig) apply(t *testing.T, op deltaOp) string {
	switch op.kind {
	case opMount:
		return r.cols[op.node].Ingest(deltaSubTrace(op)).TopoPatternID
	case opFlush:
		r.cols[op.node].FlushPatterns()
	case opFlushAll:
		for _, n := range deltaNodes {
			r.cols[n].FlushPatterns()
		}
		if r.barrier != nil {
			if err := r.barrier(); err != nil {
				t.Fatalf("%s: barrier: %v", r.name, err)
			}
		}
	case opRestart:
		r.start(op.node) // what the old collector had already sent stays sent
	}
	return ""
}

type pairKey struct{ node, pattern string }

// oraclePair is what the whole-snapshot store holds for one (node, pattern):
// its segments in arrival order, the last of them live when live is set.
type oraclePair struct {
	segs []*bloom.Filter
	live bool
}

// deltaOracle models whole-snapshot uploads end to end. The agent side keeps,
// per pair, the filter of everything the node's current generation mounted
// since the filter was last empty, and uploads a copy of all of it at every
// flush; the store side replaces the pair's live segment with that copy (on
// top of what earlier generations left there, which a restarted agent no
// longer holds), and lets a full filter retire the live segment it covers.
type deltaOracle struct {
	replica map[pairKey]*bloom.Filter
	dirty   map[pairKey]bool
	base    map[pairKey]*bloom.Filter  // the live segment as the node's current generation found it
	unsent  map[string]map[string]bool // node -> topo patterns its generation has discovered, not uploaded
	seen    map[pairKey]bool           // pairs the node's current generation has mounted on
	known   map[string]bool            // topo patterns the store has been sent
	store   map[pairKey]*oraclePair

	snapshotBytes int // what the Bloom reports of these uploads meter at
}

func newDeltaOracle() *deltaOracle {
	return &deltaOracle{
		replica: map[pairKey]*bloom.Filter{}, dirty: map[pairKey]bool{}, base: map[pairKey]*bloom.Filter{},
		unsent: map[string]map[string]bool{}, seen: map[pairKey]bool{}, known: map[string]bool{},
		store: map[pairKey]*oraclePair{},
	}
}

func (o *deltaOracle) meter(pk pairKey, f *bloom.Filter) {
	o.snapshotBytes += (&wire.BloomReport{Node: pk.node, PatternID: pk.pattern, Filter: f}).Size()
}

func (o *deltaOracle) pair(pk pairKey) *oraclePair {
	p := o.store[pk]
	if p == nil {
		p = &oraclePair{}
		o.store[pk] = p
	}
	return p
}

func (o *deltaOracle) acceptSnapshot(pk pairKey, snap *bloom.Filter) {
	o.meter(pk, snap)
	whole := snap
	if b := o.base[pk]; b != nil {
		whole = b.Snapshot()
		if err := whole.Union(snap); err != nil {
			panic(err)
		}
	}
	p := o.pair(pk)
	if p.live {
		p.segs[len(p.segs)-1] = whole
	} else {
		p.segs, p.live = append(p.segs, whole), true
	}
}

func (o *deltaOracle) acceptFull(pk pairKey, full *bloom.Filter) {
	o.meter(pk, full)
	p := o.pair(pk)
	if p.live && full.Covers(p.segs[len(p.segs)-1]) {
		p.segs[len(p.segs)-1] = full
	} else {
		p.segs = append(p.segs, full)
	}
	p.live = false
	delete(o.base, pk)
}

func (o *deltaOracle) flush(node string) {
	for p := range o.unsent[node] {
		o.known[p] = true
	}
	delete(o.unsent, node)
	for pk, f := range o.replica {
		if pk.node == node && o.dirty[pk] {
			o.acceptSnapshot(pk, f.Snapshot())
			o.dirty[pk] = false
		}
	}
}

func (o *deltaOracle) apply(op deltaOp, pattern string) {
	switch op.kind {
	case opMount:
		pk := pairKey{op.node, pattern}
		if !o.seen[pk] {
			o.seen[pk] = true
			if o.unsent[op.node] == nil {
				o.unsent[op.node] = map[string]bool{}
			}
			o.unsent[op.node][pattern] = true
		}
		f := o.replica[pk]
		if f == nil {
			f = bloom.New(deltaBufBytes, bloom.DefaultFPP)
			o.replica[pk] = f
		}
		f.Add(op.id)
		o.dirty[pk] = true
		if f.Full() {
			o.acceptFull(pk, f.Snapshot())
			f.Reset()
			o.dirty[pk] = false
		}
	case opFlush:
		o.flush(op.node)
	case opFlushAll:
		for _, n := range deltaNodes {
			o.flush(n)
		}
	case opRestart:
		delete(o.unsent, op.node)
		for pk := range o.seen {
			if pk.node != op.node {
				continue
			}
			delete(o.seen, pk)
			delete(o.replica, pk)
			delete(o.dirty, pk)
			delete(o.base, pk)
			if p := o.store[pk]; p != nil && p.live {
				o.base[pk] = p.segs[len(p.segs)-1].Snapshot()
			}
		}
	}
}

func (o *deltaOracle) dump() []backend.SegmentDump {
	var out []backend.SegmentDump
	for pk, p := range o.store {
		for i, f := range p.segs {
			out = append(out, backend.SegmentDump{Node: pk.node, PatternID: pk.pattern,
				Live: p.live && i == len(p.segs)-1, Filter: f.AppendMarshal(nil)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].PatternID < out[j].PatternID
	})
	return out
}

// kind is the answer the store owes for id: an approximate trace when a
// segment of a pattern it has been sent claims the ID, a miss otherwise
// (nothing is sampled here, so nothing answers exactly).
func (o *deltaOracle) kind(id string) backend.HitKind {
	for pk, p := range o.store {
		if !o.known[pk.pattern] {
			continue
		}
		for _, f := range p.segs {
			if f.Contains(id) {
				return backend.PartialHit
			}
		}
	}
	return backend.Miss
}

// uploaded reports whether id reached the store: some segment holds it.
func (o *deltaOracle) uploaded(id string) bool {
	for _, p := range o.store {
		for _, f := range p.segs {
			if f.Contains(id) {
				return true
			}
		}
	}
	return false
}

// assertStoreEqualsOracle compares one store with the oracle: segment bits
// and ID counts per (node, pattern), the Bloom share of StorageBytes, and the
// answer for every probe ID.
func assertStoreEqualsOracle(t *testing.T, name string, b *backend.Backend, o *deltaOracle, probes []string) {
	t.Helper()
	got, want := b.DumpSegments(), o.dump()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, whole-snapshot uploads leave %d", name, len(got), len(want))
	}
	var bloomBytes int64
	for i := range want {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.PatternID != w.PatternID || g.Live != w.Live || !bytes.Equal(g.Filter, w.Filter) {
			gf, _ := bloom.Unmarshal(g.Filter)
			wf, _ := bloom.Unmarshal(w.Filter)
			t.Fatalf("%s: segment %d is (%s, %s) live=%v with %d IDs in %d B; whole-snapshot uploads leave (%s, %s) live=%v with %d IDs in %d B",
				name, i, g.Node, g.PatternID, g.Live, gf.Count(), len(g.Filter),
				w.Node, w.PatternID, w.Live, wf.Count(), len(w.Filter))
		}
		bloomBytes += int64(len(w.Filter))
	}
	if _, _, blooms, _ := b.StorageBytes(); blooms != bloomBytes {
		t.Fatalf("%s: bloom storage %d, the oracle's filters encode to %d", name, blooms, bloomBytes)
	}
	for _, id := range probes {
		if g, w := b.Query(id).Kind, o.kind(id); g != w {
			t.Fatalf("%s: Query(%s) = %v, want %v", name, id, g, w)
		}
	}
}

// redelivered counts, over all seeds, the envelopes the fault schedule made
// the client send again and the ones the server recognized as duplicates.
var redelivered int64

func TestDeltaUploadsEqualSnapshots(t *testing.T) {
	restore := rpc.SetTimersForTest(rpc.TestTimers{
		Flush:         2 * time.Millisecond,
		RetryDeadline: 20 * time.Second,
		RedialBase:    2 * time.Millisecond,
		RedialMax:     20 * time.Millisecond,
		RedialDial:    500 * time.Millisecond,
		RedialTick:    2 * time.Millisecond,
	})
	defer restore()
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runDeltaHistory(t, seed) })
	}
	if redelivered == 0 {
		t.Fatal("the fault schedule never forced an envelope to be redelivered: exactly-once was not exercised")
	}
}

func runDeltaHistory(t *testing.T, seed int64) {
	history := genDeltaHistory(seed, 1200)
	oracle := newDeltaOracle()

	// Inline, one shard.
	syncStore := backend.New(0)

	// Durable, with compactions falling inside the history.
	dir := t.TempDir()
	persist := backend.PersistConfig{Dir: dir, SnapshotEveryBytes: 6 << 10}
	durable := backend.NewSharded(0, 4)
	if err := durable.OpenPersistence(persist); err != nil {
		t.Fatalf("open durable store: %v", err)
	}

	// Remote, through a proxy that resets connections and tears frames in
	// both directions: an envelope whose acknowledgement is cut off is sent
	// again, and must not be applied again.
	remoteStore := backend.NewSharded(0, 2)
	srv := rpc.NewServer(remoteStore)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	px, err := chaos.New(addr.String(), chaos.Config{
		Seed: seed, ResetProb: 0.04, TruncateProb: 0.04, DelayProb: 0.05, MaxDelay: time.Millisecond, RefuseProb: 0.2,
	})
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	defer px.Close()
	var cli *rpc.Client
	for attempt := 0; ; attempt++ {
		if cli, err = rpc.Dial(px.Addr()); err == nil {
			break
		}
		if attempt >= 50 {
			t.Fatalf("dial through the proxy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer cli.Close()

	rigs := []*deltaRig{
		newDeltaRig("sync", syncStore, nil),
		newDeltaRig("durable", durable, durable.FlushPersistence),
		newDeltaRig("remote", cli, nil),
	}
	stores := []*backend.Backend{syncStore, durable, remoteStore}

	var probes []string
	for i, op := range history {
		pattern := ""
		for _, r := range rigs {
			p := r.apply(t, op)
			if r != rigs[0] && p != pattern {
				t.Fatalf("op %d: %s matched pattern %q, %s matched %q", i, r.name, p, rigs[0].name, pattern)
			}
			pattern = p
		}
		oracle.apply(op, pattern)
		if op.kind == opMount {
			probes = append(probes, op.id)
		}
		if i%8 == 0 {
			time.Sleep(time.Millisecond) // lets the client's flush timer cut many envelopes
		}
	}
	px.Calm()
	final := deltaOp{kind: opFlushAll}
	rigs[2].barrier = cli.FlushPersistence
	for _, r := range rigs {
		r.apply(t, final)
	}
	oracle.apply(final, "")
	if err := cli.Err(); err != nil {
		t.Fatalf("transport latched an error: %v", err)
	}
	redelivered += cli.ReplayedEnvelopes() + srv.DedupHits()
	t.Logf("proxy: %d resets, %d torn frames, %d refused; client replayed %d envelopes, server recognized %d duplicates",
		px.Resets(), px.Truncations(), px.Refused(), cli.ReplayedEnvelopes(), srv.DedupHits())

	// Every mounted ID that reached the store answers: the no-miss property.
	lost := 0
	for _, id := range probes {
		if !oracle.uploaded(id) {
			lost++ // mounted on an agent that died before uploading it
		} else if oracle.kind(id) == backend.Miss {
			t.Fatalf("%s was uploaded and its pattern sent, but the oracle misses it", id)
		}
	}
	if lost == len(probes) {
		t.Fatal("history uploaded nothing")
	}
	for i := 0; i < 1000; i++ {
		probes = append(probes, fmt.Sprintf("never-%d-%d", seed, i))
	}

	for i, b := range stores {
		assertStoreEqualsOracle(t, rigs[i].name, b, oracle, probes)
		total, pats, blooms, params := b.StorageBytes()
		wt, wp, wb, wpar := syncStore.StorageBytes()
		if total != wt || pats != wp || blooms != wb || params != wpar {
			t.Fatalf("%s: storage (%d, %d, %d, %d), the inline store has (%d, %d, %d, %d)",
				rigs[i].name, total, pats, blooms, params, wt, wp, wb, wpar)
		}
	}

	// The same reports cost the same bytes wherever they go, and never more
	// than the whole filters would have.
	sent := rigs[0].meter.ByKind("bloom")
	for _, r := range rigs[1:] {
		if got := r.meter.ByKind("bloom"); got != sent {
			t.Fatalf("%s metered %d Bloom bytes, the inline rig %d", r.name, got, sent)
		}
	}
	if sent >= int64(oracle.snapshotBytes) {
		t.Fatalf("delta uploads metered %d Bloom bytes, whole-snapshot uploads %d", sent, oracle.snapshotBytes)
	}

	// Reopened, and reopened under another shard count.
	if err := durable.ClosePersistence(); err != nil {
		t.Fatalf("close durable store: %v", err)
	}
	for _, shards := range []int{4, 3} {
		b := backend.NewSharded(0, shards)
		if err := b.OpenPersistence(persist); err != nil {
			t.Fatalf("reopen with %d shards: %v", shards, err)
		}
		assertStoreEqualsOracle(t, fmt.Sprintf("reopened with %d shards", shards), b, oracle, probes)
		if err := b.ClosePersistence(); err != nil {
			t.Fatalf("close store reopened with %d shards: %v", shards, err)
		}
	}
}

// slowDeltaSink takes its time to pass a periodic Bloom report on.
type slowDeltaSink struct{ collector.Sink }

func (s slowDeltaSink) AcceptBloom(r *wire.BloomReport, immutable bool) {
	if !immutable {
		time.Sleep(20 * time.Microsecond)
	}
	s.Sink.AcceptBloom(r, immutable)
}

// TestDeltaNeverOvertakesItsFill: periodic uploads racing ingest. A delta cut
// before a filter fills holds IDs the full filter also holds; applied after
// the full filter it would start a second segment for them. Deltas and full
// filters are cut and handed to the sink under one lock, so whatever the
// interleaving the store counts every ID once, in as many segments as
// whole-snapshot uploads leave. The sink dawdles over every delta, which is
// when a fill would slip past it. Run with -race.
func TestDeltaNeverOvertakesItsFill(t *testing.T) {
	const mounts = 2000
	store := backend.NewSharded(0, 2)
	col := newDeltaRig("inline", slowDeltaSink{store}, nil).cols["n1"]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < mounts; i++ {
			col.Ingest(deltaSubTrace(deltaOp{node: "n1", id: fmt.Sprintf("t%d", i)}))
		}
	}()
	for flushing := true; flushing; {
		select {
		case <-done:
			flushing = false
		default:
		}
		col.FlushPatterns()
	}

	capacity := bloom.New(deltaBufBytes, bloom.DefaultFPP).Capacity()
	segs := store.DumpSegments()
	if want := (mounts + capacity - 1) / capacity; len(segs) != want {
		t.Fatalf("%d segments for %d IDs in filters of %d, want %d", len(segs), mounts, capacity, want)
	}
	ids := 0
	for _, s := range segs {
		f, err := bloom.Unmarshal(s.Filter)
		if err != nil {
			t.Fatal(err)
		}
		ids += f.Count()
	}
	if ids != mounts {
		t.Fatalf("the segments count %d IDs, %d were mounted", ids, mounts)
	}
	for i := 0; i < mounts; i++ {
		if store.Query(fmt.Sprintf("t%d", i)).Kind == backend.Miss {
			t.Fatalf("t%d misses", i)
		}
	}
}
