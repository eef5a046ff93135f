// Package chaos is a programmable TCP fault-injection proxy for testing the
// rpc transport's fault tolerance. A Proxy listens on a loopback port and
// forwards every accepted connection to a real target address, injecting
// faults from a seeded schedule on the way: connection resets mid-stream,
// frames truncated mid-chunk before a reset, per-chunk delivery delays,
// connections refused at accept, and periodic full partitions (every live
// connection reset, new connections stalled until the window ends — never
// refused, so a client's circuit breaker waits for recovery instead of
// declaring the server gone).
//
// All randomness comes from one seeded source, so a fault schedule is
// reproducible given the same seed and the same traffic shape; Calm turns
// the schedule off mid-run, after which the proxy forwards faithfully —
// the shape a convergence test needs (aggressive faults, then a calm
// window to converge in).
package chaos

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config is a Proxy's fault schedule. Probabilities are per forwarded chunk
// (resets, truncations, delays) or per accepted connection (refusals); zero
// values inject nothing of that fault class.
type Config struct {
	// Seed seeds the schedule's random source.
	Seed int64
	// ResetProb is the per-chunk probability the connection is reset (TCP
	// RST on both halves) instead of forwarding the chunk.
	ResetProb float64
	// TruncateProb is the per-chunk probability only half the chunk is
	// forwarded before the connection is reset — a frame torn mid-payload.
	TruncateProb float64
	// DelayProb is the per-chunk probability delivery pauses for a random
	// duration up to MaxDelay.
	DelayProb float64
	// MaxDelay bounds injected delivery delays.
	MaxDelay time.Duration
	// RefuseProb is the per-connection probability an accepted connection
	// is closed immediately, before any byte is forwarded.
	RefuseProb float64
	// PartitionEvery, when positive, starts a partition window on this
	// period: every proxied connection is reset and new connections stall
	// until the window ends.
	PartitionEvery time.Duration
	// PartitionFor is the length of each partition window.
	PartitionFor time.Duration
}

// Proxy is a running fault-injection proxy. Create with New, stop with
// Close.
type Proxy struct {
	cfg    Config
	target string
	ln     net.Listener
	quit   chan struct{}
	wg     sync.WaitGroup

	mu        sync.Mutex
	rng       *rand.Rand
	calm      bool
	closed    bool
	partUntil time.Time
	nextPart  time.Time
	conns     map[*proxyConn]struct{}

	accepted    atomic.Int64
	refused     atomic.Int64
	resets      atomic.Int64
	truncations atomic.Int64
	delays      atomic.Int64
}

// New starts a proxy on a loopback port forwarding to target.
func New(target string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:    cfg,
		target: target,
		ln:     ln,
		quit:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		conns:  map[*proxyConn]struct{}{},
	}
	if cfg.PartitionEvery > 0 {
		p.nextPart = time.Now().Add(cfg.PartitionEvery)
		p.wg.Add(1)
		go p.partitionLoop()
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — the address to dial instead of
// the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted returns the number of connections accepted (including refused
// ones) — each one past the first pool dial is a client redial.
func (p *Proxy) Accepted() int64 { return p.accepted.Load() }

// Refused returns the number of connections closed at accept.
func (p *Proxy) Refused() int64 { return p.refused.Load() }

// Resets returns the number of connections reset mid-stream (truncations
// and partition kills included).
func (p *Proxy) Resets() int64 { return p.resets.Load() }

// Truncations returns the number of chunks forwarded only in part before a
// reset.
func (p *Proxy) Truncations() int64 { return p.truncations.Load() }

// Delays returns the number of injected delivery delays.
func (p *Proxy) Delays() int64 { return p.delays.Load() }

// Calm turns the fault schedule off: no further resets, truncations,
// delays, refusals or partitions. Live connections continue, now forwarded
// faithfully.
func (p *Proxy) Calm() {
	p.mu.Lock()
	p.calm = true
	p.partUntil = time.Time{}
	p.mu.Unlock()
}

// Close stops the proxy: the listener closes, every proxied connection is
// torn down, and the pumps drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	close(p.quit)
	conns := make([]*proxyConn, 0, len(p.conns))
	for pc := range p.conns {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, pc := range conns {
		pc.reset()
	}
	p.wg.Wait()
	return err
}

// roll draws one fault decision from the seeded source; always false once
// calm.
func (p *Proxy) roll(prob float64) bool {
	if prob <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.calm || p.closed {
		return false
	}
	return p.rng.Float64() < prob
}

// rollDelay draws a delivery delay (zero when none is injected).
func (p *Proxy) rollDelay() time.Duration {
	if p.cfg.DelayProb <= 0 || p.cfg.MaxDelay <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.calm || p.closed || p.rng.Float64() >= p.cfg.DelayProb {
		return 0
	}
	return time.Duration(p.rng.Int63n(int64(p.cfg.MaxDelay)))
}

// inPartition reports whether a partition window is open.
func (p *Proxy) inPartition() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.calm && time.Now().Before(p.partUntil)
}

// partitionLoop opens partition windows on schedule, resetting every live
// connection at each window's start. New connections stall in serve until
// the window ends.
func (p *Proxy) partitionLoop() {
	defer p.wg.Done()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.quit:
			return
		case now := <-t.C:
			p.mu.Lock()
			if p.calm || p.closed {
				p.mu.Unlock()
				return
			}
			if now.Before(p.nextPart) {
				p.mu.Unlock()
				continue
			}
			p.partUntil = now.Add(p.cfg.PartitionFor)
			p.nextPart = now.Add(p.cfg.PartitionEvery)
			conns := make([]*proxyConn, 0, len(p.conns))
			for pc := range p.conns {
				conns = append(conns, pc)
			}
			p.mu.Unlock()
			for _, pc := range conns {
				p.resets.Add(1)
				pc.reset()
			}
		}
	}
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.accepted.Add(1)
		if p.roll(p.cfg.RefuseProb) {
			p.refused.Add(1)
			conn.Close()
			continue
		}
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// proxyConn is one forwarded connection pair. reset tears both halves down
// abruptly (TCP RST where the transport supports it) exactly once.
type proxyConn struct {
	cli, srv net.Conn
	once     sync.Once
}

func (pc *proxyConn) reset() {
	pc.once.Do(func() {
		for _, c := range []net.Conn{pc.cli, pc.srv} {
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			c.Close()
		}
	})
}

// serve forwards one accepted connection: stall through any open partition
// window, connect to the target, then pump both directions with fault
// injection until either side closes.
func (p *Proxy) serve(cli net.Conn) {
	defer p.wg.Done()
	for p.inPartition() {
		select {
		case <-p.quit:
			cli.Close()
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
	srv, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		cli.Close()
		return
	}
	pc := &proxyConn{cli: cli, srv: srv}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.reset()
		return
	}
	p.conns[pc] = struct{}{}
	p.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pump(pc, srv, cli) }()
	go func() { defer wg.Done(); p.pump(pc, cli, srv) }()
	wg.Wait()
	pc.reset()
	p.mu.Lock()
	delete(p.conns, pc)
	p.mu.Unlock()
}

// pump copies src to dst chunk by chunk, drawing one fault decision per
// chunk: delay, truncate-then-reset, or reset.
func (p *Proxy) pump(pc *proxyConn, dst, src net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := p.rollDelay(); d > 0 {
				p.delays.Add(1)
				time.Sleep(d)
			}
			switch {
			case p.roll(p.cfg.TruncateProb):
				p.truncations.Add(1)
				p.resets.Add(1)
				if n > 1 {
					_, _ = dst.Write(buf[:n/2])
				}
				pc.reset()
				return
			case p.roll(p.cfg.ResetProb):
				p.resets.Add(1)
				pc.reset()
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				pc.reset()
				return
			}
		}
		if err != nil {
			return
		}
	}
}
