package main

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Load generators. A closed loop issues op i+1 when op i returns; an open
// loop issues op i at start + i/rate whatever the program does, and times
// it from that due moment, so a stall is charged to every op it delayed.
// Both are fixed-count (so count-based ratios repeat exactly for a seed)
// with a wall-clock cap that only a box much slower than the reference
// ever reaches.

// loop describes one generator goroutine's section.
type loop struct {
	n        int // ops to issue
	lapEvery int // ops between lapEnd calls; 0 = one call, after the last op
	deadline time.Time
	stop     *atomic.Bool                // optional early stop, checked per op
	cpu      func() time.Duration        // CPU clock of the process(es) under test; may be nil
	prep     func(i int)                 // generator work before op i, untimed; may be nil
	do       func(i int)                 // the timed call
	lapEnd   func(done int) bool         // called every lapEvery ops and after the last; reports whether it did work (a Flush), which then counts as program time, not generator time; may be nil
	record   func(i int, s, e time.Time) // per-op hook for the tracer; may be nil

	// Open loop only: ops are due at start + (i*stride+offset)/rate.
	rate   float64
	stride float64
	offset float64
}

type loopStats struct {
	done   int
	ends   int       // lapEnd calls that did work
	capped bool      // the wall-clock cap cut the section short
	lat    []float64 // µs per op, in issue order
	wall   time.Duration
	cpu    time.Duration // CPU the process(es) under test used over the section
	busy   time.Duration // Σ timed calls + lap ends; wall - busy is generator overhead
	lag    []float64     // open loop: µs the generator itself sent late (after max(due, free))
}

func (l *loop) run() loopStats {
	st := loopStats{lat: make([]float64, 0, l.n)}
	open := l.rate > 0
	if open {
		st.lag = make([]float64, 0, l.n)
		if l.stride == 0 {
			l.stride = 1
		}
	}
	lapEvery := l.lapEvery
	if lapEvery <= 0 {
		lapEvery = l.n
	}
	var cpu0 time.Duration
	if l.cpu != nil {
		cpu0 = l.cpu()
	}
	start := time.Now()
	free := start
	for i := 0; i < l.n; i++ {
		if l.stop != nil && l.stop.Load() {
			break
		}
		if l.prep != nil {
			l.prep(i)
		}
		var s, from time.Time
		if open {
			due := start.Add(time.Duration((float64(i)*l.stride + l.offset) / l.rate * 1e9))
			waitUntil(due)
			s = time.Now()
			from = due
			ready := due
			if free.After(ready) {
				ready = free
			}
			st.lag = append(st.lag, float64(s.Sub(ready))/1e3)
		} else {
			s = time.Now()
			from = s
		}
		if s.After(l.deadline) {
			st.capped = true
			break
		}
		l.do(i)
		e := time.Now()
		free = e
		st.lat = append(st.lat, float64(e.Sub(from))/1e3)
		st.busy += e.Sub(s)
		if l.record != nil {
			l.record(i, from, e)
		}
		st.done++
		if (st.done%lapEvery == 0 || i == l.n-1) && l.lapEnd != nil && l.lapEnd(st.done) {
			free = time.Now()
			st.busy += free.Sub(e)
			st.ends++
		}
	}
	st.wall = time.Since(start)
	if l.cpu != nil {
		st.cpu = l.cpu() - cpu0
	}
	return st
}

// waitUntil sleeps to within sleepMargin of t and yields the rest of the
// way. A sleeping Go program wakes through epoll, whose timeout is in whole
// milliseconds, so time.Sleep alone lands up to a millisecond late: several
// open-loop periods. Gosched hands the processor to any runnable goroutine
// of the program under test before spinning on.
func waitUntil(t time.Time) {
	const sleepMargin = 1500 * time.Microsecond
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > sleepMargin+500*time.Microsecond:
			time.Sleep(d - sleepMargin)
		default:
			runtime.Gosched()
		}
	}
}

// perOp is the section's cost of one op in seconds of wall time and of CPU:
// the section's total over its op count, lap ends (flushes) and generator
// work included. Totals, not medians over windows: a section does a fixed
// amount of work on a store that grows as it goes (capture_serial's last
// thousand traces cost 2.5 times its first), and over ten same-seed runs the
// total spread half as much as the median window did.
func (st *loopStats) perOp() (wall, cpu float64) {
	if st.done == 0 {
		return 0, 0
	}
	return st.wall.Seconds() / float64(st.done), st.cpu.Seconds() / float64(st.done)
}

// overhead is the share of the section's wall time spent in the generator
// itself (closed loop only; an open loop idles by design).
func (st *loopStats) overhead() float64 {
	if st.wall <= 0 {
		return 0
	}
	return math.Max(0, 1-float64(st.busy)/float64(st.wall))
}

func p99(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, pickTail(len(s)))
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
