// Package topo implements Mint's inter-trace level parsing (§3.3): sub-trace
// topology encoding, the Topo Pattern Library, and Bloom-filter metadata
// mounting.
//
// A sub-trace's pattern is the vector of parent→children relationships over
// span-pattern IDs, e.g. [b1e6 → {ek35, mx7v}, ek35 → {p8sz}] in Fig. 8.
// Every trace whose sub-trace matches a pattern has its trace ID added to
// the pattern's Bloom filter, so the topology of millions of traces is
// stored once per pattern plus a few bits per trace.
package topo

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/bloom"
	"repro/internal/intern"
	"repro/internal/parser"
	"repro/internal/trace"
)

// Edge is one parent→children relationship inside a topo pattern. Children
// are ordered by invocation order (start time).
type Edge struct {
	Parent   string   // span pattern ID ("" for the sub-trace entry)
	Children []string // span pattern IDs in invocation order
}

// Pattern is a sub-trace topology pattern: the ordered edges plus the entry
// and exit span patterns used for cross-node stitching (§6.2).
type Pattern struct {
	ID    string
	Node  string
	Edges []Edge
	// Entry is the span pattern ID of the sub-trace's entry operation;
	// Exits are the client-side span patterns that call out to downstream
	// nodes. Both drive upstream-downstream matching at the backend.
	Entry string
	Exits []string
	// Route caches the 32-bit FNV-1a hash of ID for shard routing; derived
	// state, set wherever ID is set, never serialized.
	Route uint32
}

// SetID assigns the pattern's ID and its cached route hash.
func (p *Pattern) SetID(id string) {
	p.ID = id
	p.Route = intern.HashString(id)
}

// clone deep-copies the pattern, so the library owns its memory even when
// the input came from an Encoder's reused scratch.
func (p *Pattern) clone() *Pattern {
	c := &Pattern{ID: p.ID, Node: p.Node, Entry: p.Entry, Route: p.Route}
	if len(p.Edges) > 0 {
		c.Edges = make([]Edge, len(p.Edges))
		for i, e := range p.Edges {
			c.Edges[i] = Edge{Parent: e.Parent, Children: append([]string(nil), e.Children...)}
		}
	}
	if len(p.Exits) > 0 {
		c.Exits = append([]string(nil), p.Exits...)
	}
	return c
}

// appendKey appends the canonical content key of the pattern to dst.
func (p *Pattern) appendKey(dst []byte) []byte {
	dst = append(dst, p.Node...)
	dst = append(dst, '\x1d')
	dst = append(dst, p.Entry...)
	for _, e := range p.Edges {
		dst = append(dst, '\x1d')
		dst = append(dst, e.Parent...)
		dst = append(dst, '-', '>')
		for i, c := range e.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, c...)
		}
	}
	return dst
}

// Key returns the canonical content key of the pattern.
func (p *Pattern) Key() string { return string(p.appendKey(nil)) }

// Size returns the serialized size of the pattern in bytes.
func (p *Pattern) Size() int {
	n := len(p.ID) + len(p.Node) + len(p.Entry)
	for _, e := range p.Edges {
		n += len(e.Parent) + 2
		for _, c := range e.Children {
			n += len(c) + 1
		}
	}
	for _, x := range p.Exits {
		n += len(x) + 1
	}
	return n
}

// Encoded carries the result of parsing one sub-trace: the matched pattern
// and the per-span parameter blocks in deterministic (encoding) order.
type Encoded struct {
	Pattern *Pattern
	TraceID string
	// Spans holds the parsed spans in pre-order of the sub-trace tree, the
	// same order a reconstruction walks the pattern.
	Spans []*parser.ParsedSpan
}

// Encoder derives topology patterns from sub-traces, reusing all of its
// intermediate state between calls: span indexes, child ordering, edge and
// exit slices. One Encoder serves one goroutine (agents keep one under their
// ingest lock); the Encoded it returns — including its Pattern — is scratch,
// valid only until the next Encode call. Library.Mount clones what it keeps,
// so handing the scratch pattern straight to Mount is safe and, on the warm
// path, allocation-free.
type Encoder struct {
	present  map[string]bool
	byParent []*trace.Span
	roots    []*trace.Span
	edges    []Edge
	exits    []string
	ordered  []*parser.ParsedSpan
	enc      Encoded
	pat      Pattern
	parsed   map[string]*parser.ParsedSpan // current call's span ID -> parsed
}

// NewEncoder creates an Encoder.
func NewEncoder() *Encoder {
	return &Encoder{present: map[string]bool{}}
}

// newEdge appends an edge to the scratch, reusing the Children capacity a
// previous call left in that slot.
func (e *Encoder) newEdge(parent string) *Edge {
	if len(e.edges) < cap(e.edges) {
		e.edges = e.edges[:len(e.edges)+1]
		ed := &e.edges[len(e.edges)-1]
		ed.Parent = parent
		ed.Children = ed.Children[:0]
		return ed
	}
	e.edges = append(e.edges, Edge{Parent: parent})
	return &e.edges[len(e.edges)-1]
}

// childRange returns the spans whose parent is spanID: a contiguous range of
// byParent, which is sorted by (ParentID, StartUnix, SpanID) so children come
// out in invocation order exactly as SubTrace.Children yields them.
func (e *Encoder) childRange(spanID string) []*trace.Span {
	lo := sort.Search(len(e.byParent), func(i int) bool { return e.byParent[i].ParentID >= spanID })
	hi := lo
	for hi < len(e.byParent) && e.byParent[hi].ParentID == spanID {
		hi++
	}
	return e.byParent[lo:hi]
}

func (e *Encoder) walk(s *trace.Span) {
	ps := e.parsed[s.SpanID]
	e.ordered = append(e.ordered, ps)
	kids := e.childRange(s.SpanID)
	if len(kids) > 0 {
		ed := e.newEdge(ps.PatternID)
		for _, k := range kids {
			ed.Children = append(ed.Children, e.parsed[k.SpanID].PatternID)
		}
	}
	if s.Kind == trace.KindClient {
		e.exits = append(e.exits, ps.PatternID)
	}
	for _, k := range kids {
		e.walk(k)
	}
}

// Encode derives the topology pattern of a sub-trace given each span's
// pattern ID. parsed must map span ID → ParsedSpan for every span of st.
// The result is valid until the next Encode call on this Encoder.
func (e *Encoder) Encode(st *trace.SubTrace, parsed map[string]*parser.ParsedSpan) *Encoded {
	clear(e.present)
	e.byParent = e.byParent[:0]
	e.roots = e.roots[:0]
	e.edges = e.edges[:0]
	e.exits = e.exits[:0]
	e.ordered = e.ordered[:0]
	e.parsed = parsed

	for _, s := range st.Spans {
		e.present[s.SpanID] = true
		if s.ParentID != "" {
			e.byParent = append(e.byParent, s)
		}
	}
	slices.SortFunc(e.byParent, func(a, b *trace.Span) int {
		if c := strings.Compare(a.ParentID, b.ParentID); c != 0 {
			return c
		}
		if a.StartUnix != b.StartUnix {
			if a.StartUnix < b.StartUnix {
				return -1
			}
			return 1
		}
		return strings.Compare(a.SpanID, b.SpanID)
	})
	for _, s := range st.Spans {
		if s.ParentID == "" || !e.present[s.ParentID] {
			e.roots = append(e.roots, s)
		}
	}
	slices.SortFunc(e.roots, func(a, b *trace.Span) int { return strings.Compare(a.SpanID, b.SpanID) })

	entry := ""
	for i, r := range e.roots {
		if i == 0 {
			entry = parsed[r.SpanID].PatternID
		}
		e.walk(r)
	}
	slices.Sort(e.exits)
	e.parsed = nil

	e.pat = Pattern{Node: st.Node, Edges: e.edges, Entry: entry, Exits: e.exits}
	e.enc = Encoded{Pattern: &e.pat, TraceID: st.TraceID, Spans: e.ordered}
	return &e.enc
}

// Encode derives the topology pattern of a sub-trace given each span's
// pattern ID. parsed must map span ID → ParsedSpan for every span of st.
// Convenience form over a fresh Encoder, so the result is caller-owned.
func Encode(st *trace.SubTrace, parsed map[string]*parser.ParsedSpan) *Encoded {
	return NewEncoder().Encode(st, parsed)
}

// Library is the Topo Pattern Library plus the Bloom filters mounted on each
// pattern. It tracks per-pattern match counts for the Edge-Case Sampler.
type Library struct {
	mu       sync.Mutex
	byKey    map[string]*entry
	byID     map[string]*entry
	bufBytes int
	fpp      float64
	// onFull is invoked from Mount, after the library lock is released, when
	// a filter reaches capacity; the collector uses it to report the filter.
	onFull func(patternID string, full *bloom.Filter)
	total  uint64 // total sub-traces matched
	keyBuf []byte // Mount's content-key scratch (guarded by mu)
}

type entry struct {
	pattern *Pattern
	filter  *bloom.Live
	matches uint64
}

// NewLibrary creates a topo pattern library whose per-pattern Bloom filters
// use the given buffer size and false-positive probability.
func NewLibrary(bufBytes int, fpp float64) *Library {
	if bufBytes <= 0 {
		bufBytes = bloom.DefaultBufferBytes
	}
	if fpp <= 0 {
		fpp = bloom.DefaultFPP
	}
	return &Library{
		byKey:    map[string]*entry{},
		byID:     map[string]*entry{},
		bufBytes: bufBytes,
		fpp:      fpp,
	}
}

// OnFilterFull registers the callback invoked when a pattern's Bloom filter
// reaches capacity. The filter passed to the callback is a detached copy of
// everything mounted since the filter was last empty; the live filter, and
// the delta it had pending for the next periodic upload, are empty again by
// then.
func (l *Library) OnFilterFull(fn func(patternID string, full *bloom.Filter)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onFull = fn
}

// Mount matches (or inserts) the pattern and mounts the trace ID onto its
// Bloom filter. It returns the canonical pattern and whether it was new.
// New patterns are deep-copied into the library, so p may point into an
// Encoder's reused scratch; the warm path (pattern already known) builds
// the content key in a reused buffer and allocates nothing.
func (l *Library) Mount(p *Pattern, traceID string) (*Pattern, bool) {
	l.mu.Lock()
	l.keyBuf = p.appendKey(l.keyBuf[:0])
	e, ok := l.byKey[string(l.keyBuf)]
	if !ok {
		key := string(l.keyBuf)
		cp := p.clone()
		cp.SetID(parser.PatternID("topo:" + key))
		e = &entry{pattern: cp, filter: bloom.NewLive(l.bufBytes, l.fpp)}
		l.byKey[key] = e
		l.byID[cp.ID] = e
	}
	e.filter.Add(traceID)
	e.matches++
	l.total++
	var full *bloom.Filter
	if e.filter.Full() {
		full = e.filter.TakeFull()
	}
	cb := l.onFull
	l.mu.Unlock()
	if full != nil && cb != nil {
		cb(e.pattern.ID, full)
	}
	return e.pattern, !ok
}

// Get returns the pattern with the given ID.
func (l *Library) Get(id string) (*Pattern, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byID[id]
	if !ok {
		return nil, false
	}
	return e.pattern, true
}

// Len returns the number of distinct topo patterns.
func (l *Library) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byID)
}

// Matches returns how many sub-traces have matched pattern id.
func (l *Library) Matches(id string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.byID[id]; ok {
		return e.matches
	}
	return 0
}

// Total returns the total number of mounted sub-traces.
func (l *Library) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Rarity returns the fraction of all mounted sub-traces that matched the
// given pattern; the Edge-Case Sampler samples patterns with low rarity
// scores more aggressively.
func (l *Library) Rarity(id string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byID[id]
	if !ok || l.total == 0 {
		return 0
	}
	return float64(e.matches) / float64(l.total)
}

// FilterDelta is what one pattern's Bloom filter gained since the library's
// previous periodic upload: a filter holding just those trace IDs.
type FilterDelta struct {
	PatternID string
	Filter    *bloom.Filter
}

// TakeFilterDeltas returns, sorted by pattern ID, a delta for every filter
// that gained trace IDs since the previous call, and starts each one's next
// delta empty. Filters that gained nothing are skipped: the backend already
// holds everything they contain. The caller must hand a pattern's deltas and
// its full filters (OnFilterFull) to the backend in the order they were cut —
// a delta cut before a fill holds IDs the full filter also holds, and applied
// after it would start a second, redundant segment for them.
func (l *Library) TakeFilterDeltas() []FilterDelta {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []FilterDelta
	for id, e := range l.byID {
		if d := e.filter.TakeDelta(); d != nil {
			out = append(out, FilterDelta{PatternID: id, Filter: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PatternID < out[j].PatternID })
	return out
}

// Snapshot returns all patterns sorted by ID.
func (l *Library) Snapshot() []*Pattern {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Pattern, 0, len(l.byID))
	for _, e := range l.byID {
		out = append(out, e.pattern)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Size returns the serialized size of all patterns in bytes (filters are
// accounted separately since they are reported on their own schedule).
func (l *Library) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.byID {
		n += e.pattern.Size()
	}
	return n
}
