package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Everything about the mintd child lives here: building it, picking free
// ports, waiting for readiness, reading its counters and resource use from
// outside, and making sure it is gone — on success, on error, on timeout
// and when the benchmark itself is killed.

const (
	childStartTimeout = 20 * time.Second
	childStopTimeout  = 30 * time.Second
)

// buildMintd compiles cmd/mintd into the build directory. go build is a
// no-op when the binary is up to date, so every run calls it.
func buildMintd(root, buildDir string) (string, time.Duration, error) {
	start := time.Now()
	bin := filepath.Join(buildDir, "mintd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mintd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build mintd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before mintd binds it; the race with another process grabbing the
// port in between is handled by the start retry in startMintd.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

type mintd struct {
	cmd      *exec.Cmd
	rpcAddr  string
	httpAddr string
	logs     *bytes.Buffer
	logMu    sync.Mutex
	waitOnce sync.Once
	waitErr  error
	done     chan struct{}
}

// live tracks running children so a fatal path can kill them all.
var live struct {
	sync.Mutex
	m map[*mintd]struct{}
}

func killAllChildren() {
	live.Lock()
	kids := make([]*mintd, 0, len(live.m))
	for d := range live.m {
		kids = append(kids, d)
	}
	live.Unlock()
	for _, d := range kids {
		d.kill()
	}
}

// startMintd launches a mintd child with 4 shards over dataDir on free
// loopback ports and returns once it printed "mintd: ready" and /healthz
// answers. procs is its GOMAXPROCS: 2 like the generator's own, or 1 where
// the workload runs on one processor (see onOneCPU).
func startMintd(bin, dataDir string, procs int) (*mintd, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := startMintdOnce(bin, dataDir, procs)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startMintdOnce(bin, dataDir string, procs int) (*mintd, error) {
	rpcPort, err := freePort()
	if err != nil {
		return nil, err
	}
	httpPort, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &mintd{
		rpcAddr:  "127.0.0.1:" + strconv.Itoa(rpcPort),
		httpAddr: "127.0.0.1:" + strconv.Itoa(httpPort),
		logs:     &bytes.Buffer{},
		done:     make(chan struct{}),
	}
	d.cmd = exec.Command(bin, "-listen", d.rpcAddr, "-http", d.httpAddr,
		"-shards", "4", "-data-dir", dataDir, "-nodes", otlpNode,
		"-snapshot-bytes", strconv.Itoa(snapshotEveryBytes))
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The kernel kills the child if the benchmark dies without cleaning up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = &lockedWriter{mu: &d.logMu, w: d.logs}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mintd: %w", err)
	}
	live.Lock()
	if live.m == nil {
		live.m = map[*mintd]struct{}{}
	}
	live.m[d] = struct{}{}
	live.Unlock()

	ready := make(chan struct{})
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.logs.WriteString(line + "\n")
			d.logMu.Unlock()
			if !signalled && line == "mintd: ready" {
				signalled = true
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
	case <-d.done:
		d.kill()
		return nil, fmt.Errorf("mintd exited before ready:\n%s", d.log())
	case <-time.After(childStartTimeout):
		d.kill()
		return nil, fmt.Errorf("mintd not ready after %v:\n%s", childStartTimeout, d.log())
	}
	// "ready" is printed once the HTTP goroutine is launched, not once it
	// listens; poll /healthz for the real thing.
	deadline := time.Now().Add(childStartTimeout)
	for {
		resp, err := http.Get("http://" + d.httpAddr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("mintd /healthz not ok after %v (last error %v):\n%s", childStartTimeout, err, d.log())
		}
		select {
		case <-d.done:
			d.kill()
			return nil, fmt.Errorf("mintd exited during start-up:\n%s", d.log())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (d *mintd) log() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.logs.String()
}

func (d *mintd) wait() error {
	d.waitOnce.Do(func() {
		<-d.done // stdout drained: Wait must not race the pipe reader
		d.waitErr = d.cmd.Wait()
		live.Lock()
		delete(live.m, d)
		live.Unlock()
	})
	return d.waitErr
}

// stop asks for a clean shutdown (SIGTERM: drain, flush patterns, fsync the
// WAL) and waits for exit 0; it kills the child if that takes too long.
func (d *mintd) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal mintd: %w", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- d.wait() }()
	select {
	case err := <-errc:
		if err != nil {
			return fmt.Errorf("mintd shutdown: %v\n%s", err, d.log())
		}
		if !strings.Contains(d.log(), "mintd: clean shutdown") {
			return fmt.Errorf("mintd exited without a clean shutdown:\n%s", d.log())
		}
		return nil
	case <-time.After(childStopTimeout):
		d.kill()
		return fmt.Errorf("mintd still running %v after SIGTERM; killed", childStopTimeout)
	}
}

// kill ends the child unconditionally and reaps it. Safe to call twice and
// after stop.
func (d *mintd) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	_ = d.wait()
}

// cpu is the child's user+system CPU so far, from /proc/<pid>/stat (fields
// 14 and 15, in clock ticks; Linux reports 100 per second to user space).
func (d *mintd) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * (time.Second / 100)
}

// cpuMask is the kernel's cpu_set_t: one bit per processor.
type cpuMask [16]uint64

func affinityOf(tid int) (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, errno
	}
	return m, nil
}

// lowest is the mask with only m's lowest processor in it.
func (m cpuMask) lowest() cpuMask {
	var out cpuMask
	for i, w := range m {
		if w != 0 {
			out[i] = w & -w
			break
		}
	}
	return out
}

// setAffinity moves every thread of a process onto the processors in m.
// Threads a Go runtime starts later are cloned from these and inherit the
// mask; two passes catch one started in between.
func setAffinity(pid int, m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 && errno != syscall.ESRCH {
				return errno
			}
		}
	}
	return nil
}

// onOneCPU moves the benchmark and the given mintd children onto one
// processor, the lowest the benchmark may run on, and returns the call that
// moves the benchmark back (a child started meanwhile inherits the one
// processor and is not moved back: its workload ends with it). A request to
// mintd and its answer are two wake-ups of a sleeping thread; across
// processors each is an interrupt to a halted virtual CPU, 40-100 us on this
// kind of box and a third more or less from one minute to the next, so that a
// 230 us query over rpc read 340 us an hour later. On one processor a wake-up
// is a context switch. A single closed-loop client keeps one processor busy
// at most, so nothing that ran in parallel is serialised. Where the kernel
// refuses, the run goes on unpinned and says so.
func onOneCPU(r *rec, children ...*mintd) (restore func()) {
	self := os.Getpid()
	before, err := affinityOf(0)
	if err == nil {
		one := before.lowest()
		for _, pid := range append([]int{self}, pidsOf(children)...) {
			if err = setAffinity(pid, one); err != nil {
				break
			}
		}
	}
	if err != nil {
		r.flag("could not move the benchmark and mintd onto one processor (%v): latencies include cross-processor wake-ups", err)
		_ = setAffinity(self, before)
		return func() {}
	}
	// One processor, one P: a second P's thread would spin for work on the
	// processor the first one needs.
	procs := runtime.GOMAXPROCS(1)
	return func() {
		_ = setAffinity(self, before)
		runtime.GOMAXPROCS(procs)
	}
}

func pidsOf(children []*mintd) []int {
	pids := make([]int, len(children))
	for i, d := range children {
		pids[i] = d.cmd.Process.Pid
	}
	return pids
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts this process's VmHWM, so that a workload run after
// another in one process reports its own peak. Best effort: without the
// kernel interface the peak is the process's, and a driver runs one
// workload per process anyway.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// scrape is one /metricsz reading: every sample line keyed by its full
// series name, labels included.
type scrape map[string]float64

func (d *mintd) scrape() (scrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.httpAddr+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metricsz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metricsz: status %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// stageTotals turns the histogram families of two scrapes into per-stage
// busy time and call counts over the interval between them.
func stageTotals(before, after scrape) []stageTotal {
	var out []stageTotal
	for name, sum := range after {
		base, ok := strings.CutSuffix(seriesName(name), "_sum")
		if !ok {
			continue
		}
		labels := name[len(seriesName(name)):]
		count := after[base+"_count"+labels] - before[base+"_count"+labels]
		if count <= 0 {
			continue
		}
		out = append(out, stageTotal{
			Stage:   base + labels,
			Count:   uint64(count),
			TotalNS: int64((sum - before[name]) * 1e9),
		})
	}
	sortStages(out)
	return out
}

func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}
