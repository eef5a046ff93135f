package main

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/mint"
)

// reader is the closed-loop query client every workload shares: single-ID
// Query (with every answer checked against the oracle), optionally
// QueryMany(64) every manyEvery ops, and findBlocks blocks of FindTraces
// rounds (findBlock) spread evenly over the n ops.
type reader struct {
	c   *mint.Cluster
	co  *corpus
	rec *rec
	tr  *tracer
	rng *rand.Rand

	// pick returns the captured op index to query next.
	pick       func(r *rand.Rand) int
	manyEvery  int
	findBlocks int
	// deepEvery keeps every deepEvery-th exact hit for the span-by-span
	// comparison after the timed section (0 = defaultDeepEvery). Kept answers
	// are live heap the collector marks beside the program's own.
	deepEvery int
	// yield makes the reader give up its processor between queries, as a
	// client that waits on a socket would. Beside a writer a goroutine that
	// never blocks keeps its processor for a whole 10 ms slice, and the
	// writer's latency would measure the scheduler, not the store.
	yield bool

	qLat, manyLat, findLat []float64 // µs, µs, ms
	exact                  int64
	never, phantom         int64
	// seen and seenExact mark the distinct captured ops queried and those
	// answered exactly: exact_hit_ratio is over distinct IDs, so that a
	// skewed query mix does not let a few hot IDs decide it.
	seen, seenExact []bool
	attempted       int64 // handed to rec once, when run returns
	wall, busy      time.Duration
	deep            []deepCheck
	deepSpans       int
	drift           spanDrift
	finds, blocks   int
	findCold        []float64 // ms, each block's untimed first round
}

// deepCheck is an exact hit kept for the span-by-span comparison that runs
// after the timed section.
type deepCheck struct {
	op  int
	res mint.QueryResult
}

const (
	neverEvery       = 50 // every 50th query asks for an ID that was never captured (2%)
	defaultDeepEvery = 8
	maxDeep          = 20000
	manySize         = 64
)

func (rd *reader) run(n int, deadline time.Time, stop *atomic.Bool) {
	start := time.Now()
	defer func() {
		rd.wall = time.Since(start)
		rd.rec.attempt(rd.attempted)
		rd.attempted = 0
	}()
	if rd.deepEvery == 0 {
		rd.deepEvery = defaultDeepEvery
	}
	neverSeq := 0
	for i := 0; i < n; i++ {
		if stop != nil && stop.Load() {
			break
		}
		now := time.Now()
		if now.After(deadline) {
			rd.rec.flag("query section hit its wall-clock cap after %d of %d ops", i, n)
			break
		}
		if rd.findBlocks > 0 && i == (rd.blocks+1)*n/(rd.findBlocks+1) {
			rd.findBlock()
			continue
		}
		if rd.manyEvery > 0 && i%rd.manyEvery == rd.manyEvery-1 {
			rd.queryMany()
			continue
		}
		captured := i%neverEvery != neverEvery-1
		var op int
		var id string
		if captured {
			op = rd.pick(rd.rng)
			id = rd.co.id(op)
		} else {
			id = rd.co.neverID(neverSeq)
			neverSeq++
		}
		s := time.Now()
		res := rd.c.Query(id)
		e := time.Now()
		rd.qLat = append(rd.qLat, float64(e.Sub(s))/1e3)
		rd.busy += e.Sub(s)
		rd.tr.op("query", op, s, e)
		rd.account(op, captured, res)
		if rd.yield {
			runtime.Gosched()
		}
	}
}

// account applies the cheap oracle checks and the hit accounting.
func (rd *reader) account(op int, captured bool, res mint.QueryResult) {
	rd.attempted++
	if msg := checkKind(captured, res); msg != "" {
		rd.rec.fail("query op %d: %s", op, msg)
		return
	}
	if !captured {
		rd.never++
		if res.Kind != mint.Miss {
			rd.phantom++
		}
		return
	}
	if op >= len(rd.seen) {
		rd.seen = append(rd.seen, make([]bool, op+1-len(rd.seen)+len(rd.seen)/4)...)
		rd.seenExact = append(rd.seenExact, make([]bool, len(rd.seen)-len(rd.seenExact))...)
	}
	rd.seen[op] = true
	if res.Kind == mint.ExactHit {
		rd.seenExact[op] = true
		rd.exact++
		if rd.exact%int64(rd.deepEvery) == 0 && len(rd.deep) < maxDeep {
			rd.deep = append(rd.deep, deepCheck{op, res})
		}
	}
}

func (rd *reader) queryMany() {
	ops := make([]int, manySize)
	ids := make([]string, manySize)
	for k := range ids {
		ops[k] = rd.pick(rd.rng)
		ids[k] = rd.co.id(ops[k])
	}
	s := time.Now()
	out := rd.c.QueryMany(ids)
	e := time.Now()
	rd.manyLat = append(rd.manyLat, float64(e.Sub(s))/1e3)
	rd.busy += e.Sub(s)
	rd.tr.op("query_many", ops[0], s, e)
	if len(out) != len(ids) {
		rd.attempted++
		rd.rec.fail("QueryMany returned %d results for %d IDs", len(out), len(ids))
		return
	}
	for k, res := range out {
		rd.account(ops[k], true, res)
	}
}

// findBlock is one untimed search round followed by findPerBlock timed ones.
// The rounds of a run used to be spread singly over the query section, and
// find_p50_ms then measured mostly how many of the traces a search
// reconstructs were still in the 4096-entry query cache: all of them on
// capture_serial (2 ms), none on query_readonly (8 ms), and a tenth more
// queries between two searches would have turned the first into the second.
// Now every timed round finds its traces cached by the round before it (a
// search's traces fit the cache on every workload), so find_p50_ms is the
// search machinery on a warm cache: enumerating sampled IDs, cache look-ups,
// filter matching. The untimed, cold rounds print as find_cold_ms; what
// reconstructing a trace costs cold is what query_p50_us measures on the
// uniform workloads. The blocks are spread over the section because all the
// rounds of a run back to back take a tenth of a second, and a tenth of a
// second reads 5% off from one run to the next.
func (rd *reader) findBlock() {
	s := time.Now()
	rd.findRound()
	rd.findCold = append(rd.findCold, rd.findLat[len(rd.findLat)-1])
	rd.findLat = rd.findLat[:len(rd.findLat)-1]
	for k := 0; k < findPerBlock; k++ {
		rd.findRound()
	}
	rd.busy += time.Since(s)
	rd.blocks++
}

// findRound runs the two searches an SRE would: error traces of one
// service, and duration outliers. Both name the sampling reason, which is
// what scopes a search to the traces of that kind; an unscoped search
// reconstructs every sampled trace in the store (more than the query cache
// holds, so seconds on mintd's store). The lab times the unscoped search
// with approximate candidates (backend.find_ms). A round's latency is the
// mean of its two calls, so find_p50_ms is not bimodal.
func (rd *reader) findRound() {
	svc, minDur := rd.co.searchTargets()
	s := time.Now()
	errs := rd.c.FindTraces(mint.Filter{Service: svc, ErrorsOnly: true, Reason: "abnormal:status"})
	mid := time.Now()
	slow := rd.c.FindTraces(mint.Filter{MinDurationUS: minDur, Reason: "outlier:~duration"})
	e := time.Now()
	rd.findLat = append(rd.findLat, float64(e.Sub(s))/2e6)
	rd.tr.op("find.errors", rd.finds, s, mid)
	rd.tr.op("find.slow", rd.finds, mid, e)
	rd.finds++
	rd.rec.attempt(2)
	// Soundness: an exact answer is a sampled trace whose stored spans
	// satisfy the filter, so the original must satisfy it too.
	for _, ft := range errs {
		if op, ok := opOfID(ft.TraceID); ft.Kind == mint.ExactHit && (!ok || !rd.co.hasErrorIn(op, svc)) {
			rd.rec.fail("FindTraces(service=%s, errors) returned %s exactly, but the captured trace has no such span", svc, ft.TraceID)
			return
		}
	}
	for _, ft := range slow {
		if op, ok := opOfID(ft.TraceID); ft.Kind == mint.ExactHit && (!ok || !rd.co.hasSlowSpan(op, minDur)) {
			rd.rec.fail("FindTraces(minDuration=%d) returned %s exactly, but the captured trace has no such span", minDur, ft.TraceID)
			return
		}
	}
}

// opOfID recovers the op index from a captured trace ID.
func opOfID(id string) (int, bool) {
	if len(id) != 32 {
		return 0, false
	}
	v, err := strconv.ParseUint(id[16:], 16, 63)
	return int(v), err == nil
}

// verifyDeep compares the kept exact hits span by span with the originals.
// Call it after the timed section and after every writer has stopped: it
// reads pool spans that stamp mutates.
func (rd *reader) verifyDeep() {
	for _, d := range rd.deep {
		rd.rec.attempt(1)
		msg, drift := rd.co.checkExact(d.op, d.res)
		if msg != "" {
			rd.rec.fail("query op %d: %s", d.op, msg)
		}
		rd.deepSpans += len(d.res.Trace.Spans)
		rd.drift.respaced += drift.respaced
		rd.drift.unfilled += drift.unfilled
	}
	rd.deep = nil
}

// report writes the reader's end-to-end metrics.
func (rd *reader) report() {
	rd.rec.setLatency("query_p50_us", "query_p99_us", summarize(rd.qLat))
	// Queries per second of query time: the section's count over the sum of
	// its latencies, so the generator's own time and the searches stay out.
	var inQueries float64 // µs
	for _, v := range rd.qLat {
		inQueries += v
	}
	rd.rec.set("query_per_s", ratio(float64(len(rd.qLat)), inQueries/1e6))
	rd.rec.set("find_p50_ms", median(rd.findLat))
	rd.rec.set("find_cold_ms", median(rd.findCold))
	var seen, exact float64
	for op, ok := range rd.seen {
		if ok {
			seen++
			if rd.seenExact[op] {
				exact++
			}
		}
	}
	rd.rec.set("exact_hit_ratio", ratio(exact, seen))
	rd.rec.set("backend.phantom_hit_ratio", ratio(float64(rd.phantom), float64(rd.never)))
	rd.rec.set("parser.respaced_span_ratio", ratio(float64(rd.drift.respaced), float64(rd.deepSpans)))
	rd.rec.set("parser.unfilled_span_ratio", ratio(float64(rd.drift.unfilled), float64(rd.deepSpans)))
	rd.rec.sampled("find_p50_ms", len(rd.findLat))
}

// overhead is the share of the reader's wall time spent outside the program.
func (rd *reader) overhead() float64 {
	return max(0, 1-ratio(float64(rd.busy), float64(rd.wall)))
}
