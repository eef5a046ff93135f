package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/mint"
)

// The corpus is the benchmark's input and its oracle: a seeded pool of
// simulator traces that the load generators capture over and over under
// fresh trace IDs. Because op i always captures pool[i%len(pool)] as
// traceID(i), the expected answer for any captured ID is recomputed from
// the pool instead of being stored per op.

const (
	poolTraces   = 8192 // OnlineBoutique + TrainTicket, half each
	warmupTraces = 300  // offline parser training (Cluster.Warmup)
	faultFrac    = 0.05 // share of pool traces generated under a fault, as internal/experiments does
	otlpNode     = "otlp"
)

type corpus struct {
	seed  int64
	nodes []string
	warm  []*trace.Trace
	pool  []*trace.Trace
	// spans[k] indexes pool[k]'s spans by span ID for the oracle.
	spans []map[string]*trace.Span
	// rawPrefix[k] is Σ Trace.Size() of pool[0..k), with IDs at their final
	// fixed width, so raw(n) is O(1).
	rawPrefix  []int64
	spanPrefix []int64 // likewise for span counts
	// The searches' targets: the service with the most error spans in the
	// pool, and the pool's 99th-percentile span duration.
	errService string
	slowUS     int64
}

// traceID is the ID op i captures under: 32 lowercase hex characters, the
// OTLP width, so the same corpus feeds the library API and the OTLP front
// door. tag separates ID spaces (captured, never captured, warm-up).
func traceID(seed int64, tag byte, i int) string {
	var b [32]byte
	const hexd = "0123456789abcdef"
	hi := uint64(0xbe<<56) | uint64(tag)<<48 | uint64(seed)&0xffffffffffff
	lo := uint64(i)
	for k := 15; k >= 0; k-- {
		b[k] = hexd[hi&0xf]
		hi >>= 4
		b[16+k] = hexd[lo&0xf]
		lo >>= 4
	}
	return string(b[:])
}

const (
	tagCaptured = 0x01
	tagNever    = 0x02
	tagWarm     = 0x03
)

// newCorpus generates the pool. singleNode re-homes every span onto
// otlpNode, which is what mintd's OTLP path does with spans that arrive
// without host placement.
func newCorpus(seed int64, pool int, singleNode bool) *corpus {
	ob, tt := sim.OnlineBoutique(seed), sim.TrainTicket(seed)
	c := &corpus{seed: seed}
	c.nodes = append(append([]string{}, ob.Nodes...), tt.Nodes...)
	if singleNode {
		c.nodes = []string{otlpNode}
	}
	c.warm = append(sim.GenTraces(ob, warmupTraces/2), sim.GenTraces(tt, warmupTraces/2)...)
	c.pool = append(genStratified(ob, pool/2), genStratified(tt, pool-pool/2)...)
	rand.New(rand.NewSource(seed)).Shuffle(len(c.pool), func(i, j int) { c.pool[i], c.pool[j] = c.pool[j], c.pool[i] })

	// Re-key span IDs as 16 hex characters (OTLP width) and, for warm-up
	// traces, give trace IDs the same shape as measured ones.
	seq := 0
	rekey := func(t *trace.Trace, id string) {
		ids := make(map[string]string, len(t.Spans))
		for _, s := range t.Spans {
			seq++
			ids[s.SpanID] = fmt.Sprintf("%016x", seq)
		}
		t.TraceID = id
		for _, s := range t.Spans {
			s.TraceID = id
			s.SpanID = ids[s.SpanID]
			if s.ParentID != "" {
				s.ParentID = ids[s.ParentID]
			}
			if singleNode {
				s.Node = otlpNode
			}
		}
	}
	for i, t := range c.warm {
		rekey(t, traceID(seed, tagWarm, i))
	}
	c.spans = make([]map[string]*trace.Span, len(c.pool))
	c.rawPrefix = make([]int64, len(c.pool)+1)
	c.spanPrefix = make([]int64, len(c.pool)+1)
	for k, t := range c.pool {
		rekey(t, traceID(seed, tagCaptured, k))
		idx := make(map[string]*trace.Span, len(t.Spans))
		for _, s := range t.Spans {
			idx[s.SpanID] = s
		}
		c.spans[k] = idx
		c.rawPrefix[k+1] = c.rawPrefix[k] + int64(t.Size())
		c.spanPrefix[k+1] = c.spanPrefix[k] + int64(len(t.Spans))
	}
	errs := map[string]int{}
	var durs []float64
	for _, t := range c.pool {
		for _, s := range t.Spans {
			durs = append(durs, float64(s.Duration))
			if s.Status >= 400 {
				errs[s.Service]++
			}
		}
	}
	for svc, n := range errs {
		if n > errs[c.errService] || (n == errs[c.errService] && svc < c.errService) {
			c.errService = svc
		}
	}
	sort.Float64s(durs)
	c.slowUS = int64(percentile(durs, 99))
	return c
}

func (c *corpus) searchTargets() (service string, minDurationUS int64) {
	return c.errService, c.slowUS
}

func (c *corpus) hasErrorIn(op int, service string) bool {
	for _, s := range c.pool[op%len(c.pool)].Spans {
		if s.Service == service && s.Status >= 400 {
			return true
		}
	}
	return false
}

func (c *corpus) hasSlowSpan(op int, minDurationUS int64) bool {
	for _, s := range c.pool[op%len(c.pool)].Spans {
		if s.Duration >= minDurationUS {
			return true
		}
	}
	return false
}

// genStratified draws n traces from sys with the shape fixed and only the
// details left to the seed: every API gets its weight's share of the n
// traces exactly (largest remainder), every 1/faultFrac-th trace carries a
// fault, fault types go round-robin, and a fault hits a service on its own
// trace's call tree, so it always shows. What the seed decides is the order,
// which service a fault hits, and every latency and attribute value. Two
// seeds therefore give different inputs with the same statistics, and a
// metric's spread across seeds stays close to its spread across reruns.
func genStratified(sys *sim.System, n int) []*trace.Trace {
	var total float64
	for _, a := range sys.APIs {
		total += a.Weight
	}
	quota := make([]int, len(sys.APIs))
	rem := make([]float64, len(sys.APIs))
	left := n
	for k, a := range sys.APIs {
		exact := a.Weight / total * float64(n)
		quota[k] = int(exact)
		rem[k] = exact - float64(quota[k])
		left -= quota[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		quota[best]++
		rem[best] = -1
	}
	apis := make([]int, 0, n)
	for k, q := range quota {
		for j := 0; j < q; j++ {
			apis = append(apis, k)
		}
	}
	rng := sys.RNG()
	rng.Shuffle(len(apis), func(i, j int) { apis[i], apis[j] = apis[j], apis[i] })

	every := int(1 / faultFrac)
	out := make([]*trace.Trace, 0, n)
	for i, api := range apis {
		opt := sim.GenOptions{}
		if i%every == every-1 {
			services := treeServices(sys.APIs[api].Root)
			opt.Fault = &sim.Fault{
				Type:      sim.AllFaultTypes[(i/every)%len(sim.AllFaultTypes)],
				Service:   services[rng.Intn(len(services))],
				Magnitude: 50 + rng.Float64()*200, // sim.RandomFault's range
			}
		}
		out = append(out, sys.GenTrace(api, opt))
	}
	return out
}

// treeServices lists the services of an operation's call tree, in call
// order, once each.
func treeServices(root *sim.Op) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(*sim.Op)
	walk = func(op *sim.Op) {
		if !seen[op.Service] {
			seen[op.Service] = true
			out = append(out, op.Service)
		}
		for _, c := range op.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// stamp returns the trace op i captures: pool[i%len(pool)] re-stamped with
// traceID(i). The pool trace is mutated in place, so a stamped trace is
// only valid until the same pool slot is stamped again, len(pool) ops
// later; the capture path copies what it keeps.
func (c *corpus) stamp(i int) *trace.Trace {
	t := c.pool[i%len(c.pool)]
	id := traceID(c.seed, tagCaptured, i)
	t.TraceID = id
	for _, s := range t.Spans {
		s.TraceID = id
	}
	return t
}

func (c *corpus) id(i int) string      { return traceID(c.seed, tagCaptured, i) }
func (c *corpus) neverID(i int) string { return traceID(c.seed, tagNever, i) }

// raw is Σ Span.Size() (+1 separator per span, Trace.Size's convention) of
// ops [0, n): the denominator of storage_ratio and network_ratio.
func (c *corpus) raw(n int) int64 {
	p := len(c.pool)
	return int64(n/p)*c.rawPrefix[p] + c.rawPrefix[n%p]
}

// spansIn counts the spans of ops [0, n).
func (c *corpus) spansIn(n int) int64 {
	p := len(c.pool)
	return int64(n/p)*c.spanPrefix[p] + c.spanPrefix[n%p]
}

// checkKind is the oracle's per-answer check, cheap enough to run on every
// query inside the load loop: a captured ID never misses, a never-captured
// ID is never an exact hit. (A never-captured ID may come back as a partial
// hit: the store's Bloom filters have false positives by design, reported
// as backend.phantom_hit_ratio.)
func checkKind(captured bool, res mint.QueryResult) string {
	switch {
	case captured && (res.Kind == mint.Miss || res.Trace == nil):
		return "captured ID answered as miss"
	case !captured && res.Kind == mint.ExactHit:
		return "never-captured ID answered as exact hit"
	}
	return ""
}

// spanDrift counts the two ways the seed tree's "exact" answers are known to
// drift from the captured bytes. Both are parser behaviour the benchmark
// reports (parser.respaced_span_ratio, parser.unfilled_span_ratio) instead
// of failing on, so that the oracle stays green on the tree it was defined
// on and a parser fix shows as these ratios falling to zero:
//
//   - respaced: lcs.Join re-renders a templated string without the spaces
//     that sat next to a delimiter ("created_at) FROM" → "created_at)FROM");
//   - unfilled: a string matched a template whose wildcards span a
//     different number of tokens, and comes back with "<*>" left in it.
type spanDrift struct{ respaced, unfilled int }

// checkExact is the oracle's deep check, run after the timed section on a
// sample of exact hits: the answer must reproduce op i's original spans,
// field for field as Span.Serialize renders them, up to spanDrift.
func (c *corpus) checkExact(i int, res mint.QueryResult) (msg string, drift spanDrift) {
	want := c.spans[i%len(c.pool)]
	id := c.id(i)
	if res.Trace.TraceID != id {
		return "exact hit carries trace ID " + res.Trace.TraceID + ", want " + id, drift
	}
	if len(res.Trace.Spans) != len(want) {
		return "exact hit for " + id + " has " + strconv.Itoa(len(res.Trace.Spans)) + " spans, want " + strconv.Itoa(len(want)), drift
	}
	for _, got := range res.Trace.Spans {
		w := want[got.SpanID]
		if w == nil {
			return "exact hit for " + id + " has unknown span " + got.SpanID, drift
		}
		same, respaced, unfilled := sameSpan(got, w, id)
		if !same {
			exp := *w
			exp.TraceID = id
			return "exact hit differs from the captured span:\n  got  " + got.Serialize() + "\n  want " + exp.Serialize(), drift
		}
		if respaced {
			drift.respaced++
		}
		if unfilled {
			drift.unfilled++
		}
	}
	return "", drift
}

// sameSpan compares every field Span.Serialize renders; want's trace ID is
// taken as id, since pool spans are re-stamped between ops.
func sameSpan(got, want *trace.Span, id string) (same, respaced, unfilled bool) {
	if got.TraceID != id || got.SpanID != want.SpanID || got.ParentID != want.ParentID ||
		got.Service != want.Service || got.Node != want.Node || got.Operation != want.Operation ||
		got.Kind != want.Kind || got.StartUnix != want.StartUnix || got.Duration != want.Duration ||
		got.Status != want.Status || len(got.Attributes) != len(want.Attributes) {
		return false, false, false
	}
	for k, v := range want.Attributes {
		g, ok := got.Attributes[k]
		if !ok || g.IsNum != v.IsNum {
			return false, false, false
		}
		gs, vs := g.String(), v.String()
		switch {
		case gs == vs:
		case v.IsNum:
			return false, false, false
		case strings.Contains(gs, "<*>") && !strings.Contains(vs, "<*>"):
			unfilled = true
		case strings.ReplaceAll(gs, " ", "") == strings.ReplaceAll(vs, " ", ""):
			respaced = true
		default:
			return false, false, false
		}
	}
	return true, respaced, unfilled
}

// zipfOrder is a seeded query-ID sequence: Zipf(s) ranks mapped through a
// seeded permutation of [0, n), so the hot IDs are spread over the store
// instead of being the oldest ones.
func zipfOrder(seed int64, s float64, n, count int) []int32 {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(n)
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(perm[z.Uint64()])
	}
	return out
}
