// Package backend implements mint-backend (§4.3): the distributed trace
// storage engine and querier. Reported patterns, Bloom filters and sampled
// parameters are stored in a format that supports queries without
// decompression; the querier returns exact traces for sampled trace IDs and
// approximate traces for everything else.
//
// The store is sharded: pattern state (span/topo patterns, Bloom segments)
// is partitioned by FNV hash of the pattern ID and trace state (sampled
// marks, parameters) by FNV hash of the trace ID, each shard behind its own
// mutex. Writers from many collectors therefore contend only within a
// shard, while the public API is unchanged from the single-lock design.
//
// The read path is a query engine in its own right: Bloom probing runs over
// a per-shard (node, pattern)-keyed segment index instead of a flat scan
// (index.go), reconstructed results are cached in an LRU invalidated by
// per-shard write epochs (cache.go), BatchQuery/QueryMany fan out over a
// bounded worker pool (analysis.go), and FindTraces answers predicate
// searches from patterns and sampled parameters (search.go).
//
// The store is optionally durable: OpenPersistence attaches a storage engine
// that snapshots the whole store to one versioned binary file and logs
// mutations between snapshots to one write-ahead log, replayed on open
// through the shard router, so the shard count never reaches the disk
// (snapshot.go, persist.go). A background loop applies TTL retention, and
// the snapshot is rewritten when the WAL grows past a threshold.
package backend

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bloom"
	"repro/internal/bucket"
	"repro/internal/intern"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wire"
)

// HitKind classifies a query outcome the way the paper's Fig. 12 does.
type HitKind int

// Query outcomes.
const (
	Miss HitKind = iota
	PartialHit
	ExactHit
)

// String renders the hit kind.
func (k HitKind) String() string {
	switch k {
	case ExactHit:
		return "exact"
	case PartialHit:
		return "partial"
	default:
		return "miss"
	}
}

// QueryResult is what the querier returns for a trace ID. Reason is the
// sampling reason when the trace was marked sampled (always set on exact
// hits; also set on the rare sampled trace whose parameters never arrived
// and therefore answers approximately), so callers no longer need a
// Sampled() + Query() double lookup.
type QueryResult struct {
	Kind   HitKind
	Trace  *trace.Trace
	Reason string
}

type bloomSegment struct {
	node      string // resolved form of nodeSym (persistence/output boundary)
	patternID string // resolved form of patSym
	nodeSym   intern.Sym
	patSym    intern.Sym
	filter    *bloom.Filter
	bytes     int64 // the filter's persisted (encoded) size, as added to storageBloom
	at        int64 // arrival time (UnixNano) of the newest report in it, drives TTL retention
	// live marks the pair's one mutable segment, the one liveFilters points
	// at: periodic deltas are OR-ed into it until a full filter retires it.
	// Everything else is immutable.
	live bool
}

// shard is one independently locked partition of the backend store. Pattern
// shards hold spanPatterns/topoPatterns/segments/liveFilters; trace shards
// hold params/sampled. With one shard both roles coincide, which reproduces
// the original monolithic backend exactly.
//
// Pattern-keyed state is keyed by interned symbols (the backend's dict), so
// the accept and probe hot loops hash and compare a uint32 — and pack
// (node, pattern) composite keys into a uint64 — instead of hashing and
// concatenating ID strings. Trace-keyed state stays string-keyed: trace IDs
// are unbounded-cardinality and interning them would only grow the dict.
type shard struct {
	mu sync.Mutex

	// epoch counts writes that could change a query answer routed to this
	// shard (new pattern, new/replaced Bloom segment, new params, new
	// sampled mark). Read lock-free by the cache's consistency check.
	epoch atomic.Uint64

	spanPatterns map[intern.Sym]*parser.SpanPattern
	topoPatterns map[intern.Sym]*topo.Pattern
	segments     []bloomSegment
	// the live segment per (node, pattern) pair: the merge of the periodic
	// deltas uploaded since the pair's last full filter. It is always the
	// last of its pair's segments in slice order, which is what lets a
	// snapshot replay rebuild it from the records alone.
	liveFilters map[uint64]int // intern.Pair key -> index into segments
	// segment index (index.go): every segment position per (node, pattern)
	// pair, plus the pairs belonging to each pattern for targeted probes.
	segIndex map[uint64][]int
	patKeys  map[intern.Sym][]uint64

	params  map[string]map[string][]*parser.ParsedSpan // traceID -> node -> spans
	sampled map[string]string                          // traceID -> reason
	// arrival times (UnixNano) per trace, driving TTL retention of the
	// trace-keyed state. Refreshed whenever new data for the trace arrives.
	paramsAt  map[string]int64
	sampledAt map[string]int64

	storagePatterns int64
	storageBloom    int64
	storageParams   int64
}

func newShard() *shard {
	return &shard{
		spanPatterns: map[intern.Sym]*parser.SpanPattern{},
		topoPatterns: map[intern.Sym]*topo.Pattern{},
		liveFilters:  map[uint64]int{},
		segIndex:     map[uint64][]int{},
		patKeys:      map[intern.Sym][]uint64{},
		params:       map[string]map[string][]*parser.ParsedSpan{},
		sampled:      map[string]string{},
		paramsAt:     map[string]int64{},
		sampledAt:    map[string]int64{},
	}
}

// Backend is the Mint trace backend: a router over N shards of
// pattern/bloom/param stores plus storage-byte accounting and the query
// engine (segment index, result cache, batch worker pool, trace search).
type Backend struct {
	shards []*shard
	mapper *bucket.Mapper
	// syms is the backend's intern dictionary for pattern IDs and node
	// names. It is backend-local: symbols never cross the wire, and the
	// dictionary's internal sharding keeps concurrent accepts from
	// serializing on it.
	syms *intern.Dict

	// cache is the optional epoch-validated result LRU (cache.go); nil means
	// every query reconstructs.
	cache *queryCache
	// queryWorkers bounds QueryMany/BatchQuery fan-out; 0 means GOMAXPROCS.
	queryWorkers int

	// persist is the optional durable storage engine (persist.go); nil means
	// the store is memory-only.
	persist *persister
	// retentionTTL bounds the age of trace-keyed state and Bloom segments in
	// nanoseconds; 0 keeps everything forever. See SweepExpired.
	retentionTTL int64
	// now stamps mutations for retention; injectable for tests.
	now func() int64

	// tel/slow are the backend's self-observability surfaces: per-stage
	// latency histograms and the slow-op ledger. Always present — observing
	// into them is a few atomic adds, so there is no "instrumentation off"
	// mode to diverge from.
	tel  *telemetry.Registry
	slow *telemetry.Ledger
	// Per-stage histograms (registered in tel; cached here so the hot path
	// skips the registry lookup).
	histApplyPatterns, histApplyBloom, histApplyParams, histApplyMark *telemetry.Histogram
	histQueryCold, histQueryWarm                                      *telemetry.Histogram
	// selfSym is the interned reserved self-trace node: probeAll skips its
	// Bloom segments for ordinary trace IDs, so self-tracing can never turn
	// a real query's answer through a false-positive self segment.
	selfSym intern.Sym
}

// New creates a single-shard backend (the serial-equivalent configuration).
// alpha is the numeric bucketing precision the agents use (needed to
// reconstruct numeric attributes); 0 takes the default.
func New(alpha float64) *Backend { return NewSharded(alpha, 1) }

// NewSharded creates a backend partitioned into n independently locked
// shards. n <= 0 takes one shard. Storage contents and byte accounting are
// identical for every n; only lock contention changes.
func NewSharded(alpha float64, n int) *Backend {
	if alpha == 0 {
		alpha = bucket.DefaultAlpha
	}
	if n <= 0 {
		n = 1
	}
	b := &Backend{
		shards: make([]*shard, n),
		mapper: bucket.NewMapper(alpha),
		syms:   intern.NewDict(),
		now:    func() int64 { return time.Now().UnixNano() },
		tel:    telemetry.NewRegistry(),
		slow:   telemetry.NewLedger(0, DefaultSlowOpThreshold),
	}
	const applyHelp = "Shard apply latency per accepted report kind."
	b.histApplyPatterns = b.tel.Histogram("mint_shard_apply_seconds", `op="patterns"`, applyHelp)
	b.histApplyBloom = b.tel.Histogram("mint_shard_apply_seconds", `op="bloom"`, applyHelp)
	b.histApplyParams = b.tel.Histogram("mint_shard_apply_seconds", `op="params"`, applyHelp)
	b.histApplyMark = b.tel.Histogram("mint_shard_apply_seconds", `op="mark"`, applyHelp)
	const queryHelp = "Query latency: warm answers from the epoch-validated cache, cold reconstructs."
	b.histQueryCold = b.tel.Histogram("mint_query_seconds", `tier="cold"`, queryHelp)
	b.histQueryWarm = b.tel.Histogram("mint_query_seconds", `tier="warm"`, queryHelp)
	b.selfSym = b.syms.Intern(telemetry.SelfNode)
	for i := range b.shards {
		b.shards[i] = newShard()
	}
	return b
}

// DefaultSlowOpThreshold is the slow-op ledger threshold applied when the
// owner does not configure one.
const DefaultSlowOpThreshold = 250 * time.Millisecond

// Telemetry returns the backend's histogram registry. The WAL engine and
// the owning cluster register their stage histograms here too, so one
// registry renders the whole local pipeline.
func (b *Backend) Telemetry() *telemetry.Registry { return b.tel }

// SlowOps returns the backend's slow-op ledger.
func (b *Backend) SlowOps() *telemetry.Ledger { return b.slow }

// SetTimeSource replaces the clock that stamps mutations for TTL retention
// (UnixNano). Configure before serving traffic — it is not synchronized with
// concurrent writes. Tests use it to make retention deterministic.
func (b *Backend) SetTimeSource(now func() int64) { b.now = now }

// ShardCount returns the number of store partitions.
func (b *Backend) ShardCount() int { return len(b.shards) }

// Shard routing hashes with 32-bit FNV-1a (intern.HashString), the same
// function the intern dictionary caches per symbol — so an interned pattern
// routes without re-walking its ID, and routing is stable across runs and
// shard layouts regardless of intern order.

// routeIdx maps a route hash to a shard index.
func (b *Backend) routeIdx(route uint32) int {
	if len(b.shards) == 1 {
		return 0
	}
	return int(route % uint32(len(b.shards)))
}

// patternRoute returns the route hash of a pattern ID, preferring the
// cached value when the pattern carries one (zero means "not cached" —
// recomputing is always consistent since both are FNV-1a of the ID).
func patternRoute(id string, cached uint32) uint32 {
	if cached != 0 {
		return cached
	}
	return intern.HashString(id)
}

// patternShardSym returns the shard owning an interned pattern ID, routed
// by the dictionary's cached hash.
func (b *Backend) patternShardSym(sym intern.Sym) *shard {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	return b.shards[b.routeIdx(b.syms.Hash(sym))]
}

// traceShardIdx returns the shard (and its index) owning a trace ID.
func (b *Backend) traceShardIdx(traceID string) (*shard, int) {
	i := b.routeIdx(intern.HashString(traceID))
	return b.shards[i], i
}

// traceShard returns the shard owning a trace ID.
func (b *Backend) traceShard(traceID string) *shard {
	s, _ := b.traceShardIdx(traceID)
	return s
}

// The apply* functions below are the single write path into a shard: the
// public Accept*/MarkSampled entry points call them with log=true (stamping
// the mutation with the current time and appending a WAL record when
// persistence is attached), and WAL/snapshot replay calls them with
// log=false and the recorded timestamp. Logging happens under the shard
// lock so the WAL order of records for one key always matches the order
// their effects were applied in.

// AcceptPatterns stores a pattern report. Duplicate patterns (same content
// hash from different nodes) are stored once — the commonality win.
func (b *Backend) AcceptPatterns(r *wire.PatternReport) {
	start := time.Now()
	at := b.now()
	for _, p := range r.SpanPatterns {
		b.applySpanPattern(p, at, true)
	}
	for _, p := range r.TopoPatterns {
		b.applyTopoPattern(p, at, true)
	}
	b.compactIfDue()
	d := time.Since(start)
	b.histApplyPatterns.Observe(d)
	if b.slow.Exceeds(d) {
		b.slow.Record("apply-patterns", r.Node, d, 0, -1)
	}
}

func (b *Backend) applySpanPattern(p *parser.SpanPattern, at int64, log bool) {
	sym := b.syms.Intern(p.ID)
	idx := b.routeIdx(patternRoute(p.ID, p.Route))
	s := b.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.spanPatterns[sym]; ok {
		return
	}
	s.spanPatterns[sym] = p
	s.storagePatterns += int64(p.Size())
	s.epoch.Add(1)
	if log && b.persist != nil {
		b.persist.logLocked(idx, recSpanPattern, at, func(dst []byte) []byte { return wire.AppendSpanPattern(dst, p) })
	}
}

func (b *Backend) applyTopoPattern(p *topo.Pattern, at int64, log bool) {
	sym := b.syms.Intern(p.ID)
	idx := b.routeIdx(patternRoute(p.ID, p.Route))
	s := b.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.topoPatterns[sym]; ok {
		return
	}
	s.topoPatterns[sym] = p
	s.storagePatterns += int64(p.Size())
	s.epoch.Add(1)
	if log && b.persist != nil {
		b.persist.logLocked(idx, recTopoPattern, at, func(dst []byte) []byte { return wire.AppendTopoPattern(dst, p) })
	}
}

// AcceptBloom stores a reported Bloom filter; immutable is the report's Full
// flag. A periodic report is a delta — only the trace IDs mounted since the
// (node, pattern) pair's previous upload — and is OR-ed into the pair's live
// segment. A full filter becomes an immutable segment and retires the live
// one, whose IDs it contains: the agent's next delta starts a fresh live
// segment. The store keeps its own copy of a delta's bits; a full filter is
// kept as passed.
func (b *Backend) AcceptBloom(r *wire.BloomReport, immutable bool) {
	start := time.Now()
	b.applyBloom(r.Node, r.PatternID, r.Filter, immutable, b.now(), true)
	b.compactIfDue()
	d := time.Since(start)
	b.histApplyBloom.Observe(d)
	if b.slow.Exceeds(d) {
		b.slow.Record("apply-bloom", r.PatternID, d, int64(r.Filter.MarshaledSize()), -1)
	}
}

func (b *Backend) applyBloom(node, patternID string, f *bloom.Filter, full bool, at int64, log bool) {
	nodeSym := b.syms.Intern(node)
	patSym := b.syms.Intern(patternID)
	idx := b.routeIdx(b.syms.Hash(patSym))
	s := b.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.epoch.Add(1)
	key := intern.Pair(nodeSym, patSym)
	var live *bloomSegment
	if i, ok := s.liveFilters[key]; ok {
		live = &s.segments[i]
	}
	// store puts f into seg, moving the Bloom storage by the difference.
	store := func(seg *bloomSegment, f *bloom.Filter) {
		size := int64(f.MarshaledSize())
		s.storageBloom += size - seg.bytes
		seg.filter, seg.bytes, seg.at = f, size, at
	}
	add := func(f *bloom.Filter, isLive bool) {
		seg := bloomSegment{
			node: b.syms.Str(nodeSym), patternID: b.syms.Str(patSym),
			nodeSym: nodeSym, patSym: patSym, live: isLive,
		}
		store(&seg, f)
		s.addSegment(seg)
	}
	switch {
	case full:
		if live != nil {
			live.live = false
			delete(s.liveFilters, key)
		}
		if live != nil && f.Covers(live.filter) {
			// The live segment holds deltas of the filter that just filled:
			// the full filter takes over its slot.
			store(live, f)
		} else {
			// No live segment, or one that also holds IDs this filter never
			// saw (an earlier agent generation's): that one stays, sealed.
			add(f, false)
		}
	case live != nil && live.filter.Union(f) == nil:
		store(live, live.filter)
	default:
		if live != nil {
			live.live = false // filters of another shape cannot merge: sealed
		}
		s.liveFilters[key] = len(s.segments)
		add(f.Snapshot(), true)
	}
	if log && b.persist != nil {
		rep := wire.BloomReport{Node: node, PatternID: patternID, Filter: f, Full: full}
		b.persist.logLocked(idx, recBloom, at, func(dst []byte) []byte { return wire.AppendBloomReport(dst, &rep) })
	}
}

// AcceptParams stores the sampled parameters of one trace from one node.
func (b *Backend) AcceptParams(r *wire.ParamsReport) {
	start := time.Now()
	b.applyParams(r, b.now(), true)
	b.compactIfDue()
	d := time.Since(start)
	b.histApplyParams.Observe(d)
	if b.slow.Exceeds(d) {
		b.slow.Record("apply-params", r.TraceID, d, int64(r.Size()), -1)
	}
}

// applyParams is idempotent: a span whose ID is already stored for its
// (trace, node) is skipped, so a report delivered twice (an OTLP exporter
// retrying a POST whose response it lost, a WAL record replayed over a
// snapshot) stores and answers what one delivery does. A report that adds
// nothing leaves the shard, its epoch and the WAL untouched.
func (b *Backend) applyParams(r *wire.ParamsReport, at int64, log bool) {
	s, idx := b.traceShardIdx(r.TraceID)
	s.mu.Lock()
	defer s.mu.Unlock()
	byNode := s.params[r.TraceID]
	spans := byNode[r.Node]
	stored := len(spans)
	for _, sp := range r.Spans {
		if !hasSpan(spans, sp.SpanID) {
			spans = append(spans, sp)
			s.storageParams += int64(sp.Size())
		}
	}
	if len(spans) == stored {
		return
	}
	if byNode == nil {
		byNode = map[string][]*parser.ParsedSpan{}
		s.params[r.TraceID] = byNode
	}
	byNode[r.Node] = spans
	s.paramsAt[r.TraceID] = at
	s.epoch.Add(1)
	if log && b.persist != nil {
		b.persist.logLocked(idx, recParams, at, func(dst []byte) []byte { return wire.AppendParamsReport(dst, r) })
	}
}

func hasSpan(spans []*parser.ParsedSpan, spanID string) bool {
	for _, sp := range spans {
		if sp.SpanID == spanID {
			return true
		}
	}
	return false
}

// MarkSampled records that a trace was marked sampled (and why).
func (b *Backend) MarkSampled(traceID, reason string) {
	start := time.Now()
	b.applyMark(traceID, reason, b.now(), true)
	b.compactIfDue()
	d := time.Since(start)
	b.histApplyMark.Observe(d)
	if b.slow.Exceeds(d) {
		b.slow.Record("apply-mark", traceID, d, 0, -1)
	}
}

func (b *Backend) applyMark(traceID, reason string, at int64, log bool) {
	s, idx := b.traceShardIdx(traceID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sampled[traceID]; ok {
		return
	}
	s.sampled[traceID] = reason
	s.sampledAt[traceID] = at
	s.epoch.Add(1)
	if log && b.persist != nil {
		b.persist.logLocked(idx, recMark, at, func(dst []byte) []byte { return appendMark(dst, traceID, reason) })
	}
}

// Sampled reports whether a trace is marked sampled.
func (b *Backend) Sampled(traceID string) bool {
	s := b.traceShard(traceID)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sampled[traceID]
	return ok
}

// StorageBytes returns total storage and its three components. The Bloom
// component is the sum of the stored filters' encoded sizes — the filter
// payload bytes a snapshot of the store holds on disk.
func (b *Backend) StorageBytes() (total, patterns, blooms, params int64) {
	for _, s := range b.shards {
		s.mu.Lock()
		patterns += s.storagePatterns
		blooms += s.storageBloom
		params += s.storageParams
		s.mu.Unlock()
	}
	return patterns + blooms + params, patterns, blooms, params
}

// SpanPatternCount returns the number of stored span patterns.
func (b *Backend) SpanPatternCount() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += len(s.spanPatterns)
		s.mu.Unlock()
	}
	return n
}

// TopoPatternCount returns the number of stored topo patterns.
func (b *Backend) TopoPatternCount() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += len(s.topoPatterns)
		s.mu.Unlock()
	}
	return n
}

// spanPattern routes a span pattern lookup to its shard. An ID the dict has
// never seen cannot be stored anywhere.
func (b *Backend) spanPattern(id string) (*parser.SpanPattern, bool) {
	sym, ok := b.syms.Lookup(id)
	if !ok {
		return nil, false
	}
	s := b.patternShardSym(sym)
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.spanPatterns[sym]
	return p, ok
}

// topoPattern routes a topo pattern lookup to its shard.
func (b *Backend) topoPattern(id string) (*topo.Pattern, bool) {
	sym, ok := b.syms.Lookup(id)
	if !ok {
		return nil, false
	}
	return b.topoPatternSym(sym)
}

// topoPatternSym looks a topo pattern up by its interned handle.
func (b *Backend) topoPatternSym(sym intern.Sym) (*topo.Pattern, bool) {
	s := b.patternShardSym(sym)
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.topoPatterns[sym]
	return p, ok
}

// Query implements the paper's query logic (§4.3): check the Bloom segment
// index for the trace ID; reconstruct the matching sub-trace patterns into
// an approximate trace; if the trace was sampled, overlay the exact
// parameters.
//
// The query takes no global lock: it visits the trace shard for sampled
// params, then probes each pattern shard's segment index under that shard's
// lock only. Concurrent with ingestion it sees some consistent recent state;
// after ingestion quiesces (Flush/Close) it sees everything.
//
// With EnableQueryCache, repeated lookups of an unchanged trace are served
// from the epoch-validated LRU without reconstruction; the returned Trace
// is then shared and must be treated as read-only.
func (b *Backend) Query(traceID string) QueryResult {
	start := time.Now()
	c := b.cache
	if c == nil {
		res := b.queryUncached(traceID)
		b.observeQuery(traceID, start, false)
		return res
	}
	// Read the write stamp before any store state: if a write lands anywhere
	// during reconstruction, the entry we record is already stale under the
	// current stamp and will be discarded, never served.
	stamp := b.writeStamp()
	if res, ok := c.get(traceID, stamp); ok {
		b.observeQuery(traceID, start, true)
		return res
	}
	res := b.queryUncached(traceID)
	c.put(traceID, res, stamp)
	b.observeQuery(traceID, start, false)
	return res
}

// observeQuery records one query's latency into the warm (cache hit) or
// cold (reconstruction) histogram and the slow-op ledger.
func (b *Backend) observeQuery(traceID string, start time.Time, warm bool) {
	d := time.Since(start)
	if warm {
		b.histQueryWarm.Observe(d)
	} else {
		b.histQueryCold.Observe(d)
	}
	if b.slow.Exceeds(d) {
		op := "query-cold"
		if warm {
			op = "query-warm"
		}
		_, idx := b.traceShardIdx(traceID)
		b.slow.Record(op, traceID, d, 0, idx)
	}
}

func (b *Backend) queryUncached(traceID string) QueryResult {
	// Exact path: sampled traces have their parameters stored.
	ts := b.traceShard(traceID)
	ts.mu.Lock()
	reason, isSampled := ts.sampled[traceID]
	var byNode map[string][]*parser.ParsedSpan
	if isSampled {
		if stored, ok := ts.params[traceID]; ok {
			// Copy the node map so reconstruction can run outside the lock
			// (span slices are append-only; our header view is stable).
			byNode = make(map[string][]*parser.ParsedSpan, len(stored))
			for n, spans := range stored {
				byNode[n] = spans
			}
		}
	}
	ts.mu.Unlock()
	if len(byNode) > 0 {
		t := b.reconstructExact(traceID, byNode)
		if t != nil && len(t.Spans) > 0 {
			return QueryResult{Kind: ExactHit, Trace: t, Reason: reason}
		}
	}

	// Approximate path: probe each shard's segment index for the patterns
	// whose filters contain the ID. The index yields each (node, pattern)
	// candidate at most once, so no cross-shard dedup pass is needed.
	// Ordinary trace IDs never probe the reserved self-trace node's
	// segments — a Bloom false positive there would let the self-tracing
	// pipeline perturb real answers.
	skipSym := intern.None
	if !strings.HasPrefix(traceID, telemetry.SelfTracePrefix) {
		skipSym = b.selfSym
	}
	var hits []hit
	for _, s := range b.shards {
		s.mu.Lock()
		hits = s.probeAll(traceID, hits, skipSym)
		s.mu.Unlock()
	}
	if len(hits) == 0 {
		return QueryResult{Kind: Miss, Reason: reason}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].node != hits[j].node {
			return hits[i].node < hits[j].node
		}
		return hits[i].patternID < hits[j].patternID
	})

	t := &trace.Trace{TraceID: traceID}
	// Upstream-downstream verification (§6.2): a sub-trace pattern is a
	// genuine segment if it is the root segment or some other candidate
	// exits into its entry pattern's operation. Bloom false positives that
	// do not stitch are dropped when at least one stitched segment exists.
	var pats []*topo.Pattern
	for _, h := range hits {
		if p, ok := b.topoPatternSym(h.patSym); ok {
			pats = append(pats, p)
		}
	}
	stitched := b.stitch(pats)
	seq := 0
	st := &stitchState{exitSpans: map[string][]string{}}
	for _, p := range stitched {
		b.appendApproxSpans(t, p, &seq, st)
	}
	if len(t.Spans) == 0 {
		return QueryResult{Kind: Miss, Reason: reason}
	}
	return QueryResult{Kind: PartialHit, Trace: t, Reason: reason}
}

// calleeOf returns the downstream service a client-span pattern calls, from
// its peer.service attribute (the cross-node link of §6.2).
func (b *Backend) calleeOf(spanPatternID string) string {
	pat, ok := b.spanPattern(spanPatternID)
	if !ok {
		return ""
	}
	for _, a := range pat.Attrs {
		if a.Key == "peer.service" {
			return a.Pattern
		}
	}
	return ""
}

// serviceOf returns the service of a span pattern.
func (b *Backend) serviceOf(spanPatternID string) string {
	if pat, ok := b.spanPattern(spanPatternID); ok {
		return pat.Service
	}
	return ""
}

// stitch orders candidate sub-trace patterns so that upstream segments come
// before the downstream segments they call into, and drops candidates that
// neither call nor are called by another candidate when at least one
// stitched pair exists (Bloom false-positive mitigation, §6.2: a filter that
// claims the trace ID but whose segment cannot be attached anywhere in the
// verified call chain is a false positive). When no candidate links to any
// other — single-segment traces, or systems without recorded cross-node
// exits — every candidate is kept: there is no chain to verify against.
func (b *Backend) stitch(pats []*topo.Pattern) []*topo.Pattern {
	if len(pats) <= 1 {
		return pats
	}
	called := map[string]bool{}
	callsOut := map[string]bool{}
	for _, p := range pats {
		for _, q := range pats {
			if p == q {
				continue
			}
			if b.linksTo(p, q) {
				called[q.ID] = true
				callsOut[p.ID] = true
			}
		}
	}
	var roots, linked []*topo.Pattern
	for _, p := range pats {
		switch {
		case called[p.ID]:
			linked = append(linked, p)
		case callsOut[p.ID] || len(called) == 0:
			roots = append(roots, p)
		default:
			// Unstitchable while other candidates form a verified chain:
			// dropped as a Bloom false positive.
		}
	}
	return append(roots, linked...)
}

// linksTo reports whether a exits into c's entry: either the exit pattern
// matches c's entry directly, or the exit's peer.service names c's entry
// service (client and server spans of one call have different patterns).
func (b *Backend) linksTo(a, c *topo.Pattern) bool {
	entrySvc := b.serviceOf(c.Entry)
	for _, x := range a.Exits {
		if x == c.Entry {
			return true
		}
		if entrySvc != "" && b.calleeOf(x) == entrySvc {
			return true
		}
	}
	return false
}

// stitchState carries cross-segment linking context during approximate
// reconstruction: the synthetic span IDs of exit (client) spans keyed by
// the callee service they invoke.
type stitchState struct {
	exitSpans map[string][]string // callee service -> unused exit span IDs
}

func (b *Backend) appendApproxSpans(t *trace.Trace, p *topo.Pattern, seq *int, stitch *stitchState) {
	// Reconstruct the pattern's span tree: every edge parent->children
	// becomes placeholder spans with masked attributes.
	nextID := func() string {
		*seq++
		return approxID(t.TraceID, *seq)
	}
	// Map pattern IDs to synthetic span IDs as we walk the edges. The same
	// span pattern can appear several times; edges are in pre-order so a
	// simple queue of pending parents works.
	type nodeRef struct {
		patID  string
		spanID string
	}
	var spans []*trace.Span
	// Attach this segment's entry under a matching upstream exit span, if
	// one is waiting (trace coherence across nodes, §6.2).
	segmentParent := func(entryPatID string) string {
		svc := b.serviceOf(entryPatID)
		ids := stitch.exitSpans[svc]
		if len(ids) == 0 {
			return ""
		}
		id := ids[0]
		stitch.exitSpans[svc] = ids[1:]
		return id
	}
	makeSpan := func(patID, spanID, parentID string) *trace.Span {
		sp := &trace.Span{
			TraceID:    t.TraceID,
			SpanID:     spanID,
			ParentID:   parentID,
			Node:       p.Node,
			Attributes: map[string]trace.AttrValue{},
		}
		if callee := b.calleeOf(patID); callee != "" {
			stitch.exitSpans[callee] = append(stitch.exitSpans[callee], spanID)
		}
		if spat, ok := b.spanPattern(patID); ok {
			sp.Service = spat.Service
			sp.Operation = spat.Operation
			sp.Kind = spat.Kind
			for _, a := range spat.Attrs {
				// Numeric buckets surface a representative value (the
				// interval midpoint) so downstream analysis of approximate
				// traces can reason about latency and status; the masked
				// interval string is kept as the attribute.
				if a.IsNum {
					lo, hi := b.mapper.Bounds(a.NumIndex)
					mid := (lo + hi) / 2
					switch a.Key {
					case "~duration":
						sp.Duration = int64(mid)
					case "~status":
						sp.Status = trace.Status(uint16(mid + 0.5))
					default:
						sp.Attributes[a.Key] = trace.Num(mid)
					}
					continue
				}
				sp.Attributes[a.Key] = trace.Str(a.Pattern)
			}
		} else {
			sp.Operation = patID
		}
		spans = append(spans, sp)
		return sp
	}
	if len(p.Edges) == 0 {
		if p.Entry != "" {
			makeSpan(p.Entry, nextID(), segmentParent(p.Entry))
		}
		t.Spans = append(t.Spans, spans...)
		return
	}
	rootRef := nodeRef{patID: p.Edges[0].Parent, spanID: nextID()}
	makeSpan(rootRef.patID, rootRef.spanID, segmentParent(rootRef.patID))
	idByPat := map[string][]string{rootRef.patID: {rootRef.spanID}}
	for _, e := range p.Edges {
		// Find the synthetic span ID for the parent pattern: take the most
		// recently created instance.
		ids := idByPat[e.Parent]
		parentID := ""
		if len(ids) > 0 {
			parentID = ids[len(ids)-1]
		} else {
			ref := nodeRef{patID: e.Parent, spanID: nextID()}
			makeSpan(ref.patID, ref.spanID, segmentParent(e.Parent))
			idByPat[e.Parent] = append(idByPat[e.Parent], ref.spanID)
			parentID = ref.spanID
		}
		for _, childPat := range e.Children {
			id := nextID()
			makeSpan(childPat, id, parentID)
			idByPat[childPat] = append(idByPat[childPat], id)
		}
	}
	t.Spans = append(t.Spans, spans...)
}

func approxID(traceID string, seq int) string {
	return traceID + "-approx-" + strconv.Itoa(seq)
}

func (b *Backend) reconstructExact(traceID string, byNode map[string][]*parser.ParsedSpan) *trace.Trace {
	t := &trace.Trace{TraceID: traceID}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		for _, ps := range byNode[node] {
			pat, ok := b.spanPattern(ps.PatternID)
			if !ok {
				continue
			}
			t.Spans = append(t.Spans, parser.Reconstruct(b.mapper, pat, ps, node))
		}
	}
	return t
}

// DebugSpanPatterns returns the stored span patterns for diagnostics.
func (b *Backend) DebugSpanPatterns() []*parser.SpanPattern {
	var out []*parser.SpanPattern
	for _, s := range b.shards {
		s.mu.Lock()
		for _, p := range s.spanPatterns {
			out = append(out, p)
		}
		s.mu.Unlock()
	}
	return out
}
