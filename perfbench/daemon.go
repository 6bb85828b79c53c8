package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/sim"
	"repro/wire"
)

// daemon is one reapd child process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	exit error         // the process's exit status, valid after done

	mu       sync.Mutex
	logs     []string
	signaled bool
}

// procSet is every daemon a run started; stopAll ends them all and
// waits for each to exit.
type procSet struct {
	mu    sync.Mutex
	procs []*daemon
}

func (p *procSet) add(d *daemon) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.procs = append(p.procs, d)
}

func (p *procSet) stopAll() {
	p.mu.Lock()
	procs := p.procs
	p.procs = nil
	p.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		_ = procs[i].stop()
	}
}

// startDaemon launches reapd and returns once it logs the address it
// bound, read from its "serving … at http://…" line.
func (r *run) startDaemon(name string, args ...string) (*daemon, error) {
	if r.reapd == "" {
		return nil, fmt.Errorf("no reapd binary given (--reapd)")
	}
	cmd := exec.Command(r.reapd, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	r.procs.add(d)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs = append(d.logs, line)
			d.mu.Unlock()
			if i := strings.Index(line, " at http://"); i >= 0 && strings.Contains(line, "serving ") {
				select {
				case addrCh <- line[i+len(" at http://"):]:
				default:
				}
			}
		}
		d.exit = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before serving:\n%s", name, d.logText())
	case <-time.After(90 * time.Second):
		return nil, fmt.Errorf("%s did not report its address within 90s", name)
	}
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logs, "\n")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM (reapd drains and, when journaled, writes a final
// snapshot) and waits; a daemon that does not exit is killed. It reports
// a daemon that exited on its own or failed to drain.
func (d *daemon) stop() error {
	d.mu.Lock()
	first := !d.signaled
	d.signaled = true
	d.mu.Unlock()
	if !first {
		<-d.done
		return nil
	}
	select {
	case <-d.done:
		return fmt.Errorf("%s exited before it was stopped (%v):\n%s", d.name, d.exit, d.logText())
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		if d.exit != nil {
			return fmt.Errorf("%s failed to drain (%v):\n%s", d.name, d.exit, d.logText())
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("%s ignored SIGTERM and was killed", d.name)
	}
}

// procCPU reads a process's user+system CPU from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM reads a process's peak resident set (VmHWM) in MB.
func procHWM(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns: 4, MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2,
			DisableCompression: true,
		},
		Timeout: 60 * time.Second,
	}
}

func getJSON(c *http.Client, url string, dst any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if dst != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, dst); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func stats(c *http.Client, d *daemon) (*wire.StatsResponse, error) {
	var st wire.StatsResponse
	code, err := getJSON(c, "http://"+d.addr+"/v1/stats", &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s /v1/stats: status %d", d.name, code)
	}
	return &st, err
}

// waitFor polls cond every 10ms until it holds or the timeout passes.
func waitFor(what string, timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s (last error: %v)", what, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitHealthy(c *http.Client, d *daemon) error {
	return waitFor(d.name+" /healthz", 60*time.Second, func() (bool, error) {
		code, err := getJSON(c, "http://"+d.addr+"/healthz", nil)
		return err == nil && code == http.StatusOK, err
	})
}

// reqBody is one distinct request body of a workload.
type reqBody struct {
	raw []byte
	ops int // solves or reports it carries
}

// loadRun is what one closed-loop phase observed, and the probes taken
// between its segments.
type loadRun struct {
	lat    []float64 // ms, per request, in completion order per worker
	bodyOf []int     // distinct-body index of each latency sample
	ops    int64
	failed int64 // failed operations (non-200 requests count all their ops)
	wall   time.Duration
	cpu    time.Duration // daemon CPU over the phase
	last   [][]byte      // one response per distinct body, for output checks
	probes []float64
}

// add appends segment seg.
func (lr *loadRun) add(seg *loadRun) {
	lr.lat = append(lr.lat, seg.lat...)
	lr.bodyOf = append(lr.bodyOf, seg.bodyOf...)
	lr.ops += seg.ops
	lr.failed += seg.failed
	lr.wall += seg.wall
	lr.cpu += seg.cpu
	for k, raw := range seg.last {
		if raw != nil && lr.last[k] == nil {
			lr.last[k] = raw
		}
	}
}

// respCheck classifies one 200 response, returning how many of its ops
// failed (per-item errors, a short ack).
type respCheck func(body int, resp []byte) int

// drive sends requests from through to-1 to d from two keep-alive
// connections, each worker sending its next request only after the
// previous one completes. Request i carries bodies[i % len(bodies)]. With
// keep it keeps the first response to each body.
func (r *run) drive(d *daemon, path string, bodies []reqBody, from, to int, check respCheck, keep bool) (*loadRun, error) {
	const workers = 2
	out := &loadRun{}
	if keep {
		out.last = make([][]byte, len(bodies))
	}
	var next atomic.Int64
	next.Store(int64(from))
	type workerOut struct {
		lat    []float64
		bodyOf []int
		ops    int64
		failed int64
		err    string
		spans  []span
	}
	wo := make([]workerOut, workers)
	var keepMu sync.Mutex
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w *workerOut) {
			defer wg.Done()
			var buf bytes.Buffer
			conn := &keepAlive{addr: d.addr}
			defer conn.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				k := i % len(bodies)
				b := bodies[k]
				t0 := time.Now()
				code, err := conn.post(path, b.raw, &buf)
				t1 := time.Now()
				if r.tr.on {
					id := r.tr.id()
					w.spans = append(w.spans, span{ID: id, Req: id, Body: k, Name: "http.request", Start: r.tr.ns(t0), End: r.tr.ns(t1)})
				}
				w.lat = append(w.lat, ms(t1.Sub(t0)))
				w.bodyOf = append(w.bodyOf, k)
				w.ops += int64(b.ops)
				switch {
				case err != nil || code != http.StatusOK:
					w.failed += int64(b.ops)
					if w.err == "" {
						w.err = fmt.Sprintf("request %d: status %d, err %v: %.300s", i, code, err, buf.String())
					}
				default:
					if bad := check(k, buf.Bytes()); bad > 0 {
						w.failed += int64(bad)
						if w.err == "" {
							w.err = fmt.Sprintf("request %d: %d failed ops: %.300s", i, bad, buf.String())
						}
					}
					if keep {
						keepMu.Lock()
						if out.last[k] == nil {
							out.last[k] = append([]byte(nil), buf.Bytes()...)
						}
						keepMu.Unlock()
					}
				}
			}
		}(&wo[w])
	}
	wg.Wait()
	out.wall = time.Since(start)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0
	for _, w := range wo {
		out.lat = append(out.lat, w.lat...)
		out.bodyOf = append(out.bodyOf, w.bodyOf...)
		out.ops += w.ops
		out.failed += w.failed
		if w.err != "" {
			fmt.Fprintf(os.Stderr, "perfbench: first failure: %s\n", w.err)
		}
		r.tr.addAll(w.spans)
	}
	return out, nil
}

// segments is how many closed-loop segments one measured phase is split
// into, with a probe after each, so the probes sample the host while the
// phase runs.
const segments = 8

// measure runs requests 0 to n-1 against the deployment's target as one
// measured phase of segments, quiescing the deployment's daemons and
// probing the host after each.
func (r *run) measure(dep *deployment, path string, bodies []reqBody, n int, check respCheck, keep bool) (*loadRun, error) {
	out := &loadRun{}
	if keep {
		out.last = make([][]byte, len(bodies))
	}
	for s := 0; s < segments; s++ {
		seg, err := r.drive(dep.target, path, bodies, s*n/segments, (s+1)*n/segments, check, keep)
		if err != nil {
			return nil, err
		}
		out.add(seg)
		out.probes = append(out.probes, r.quietProbe(dep))
	}
	return out, nil
}

// quietProbe waits until the deployment's daemons have used no CPU for
// 20ms (at most 2s), so that the probe does not share the host with
// their collector or a compaction, then probes the host.
func (r *run) quietProbe(dep *deployment) float64 {
	prev := time.Duration(-1)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		var sum time.Duration
		for _, d := range dep.daemons {
			c, err := procCPU(d.pid())
			if err != nil {
				return r.probe() // the stop or the output checks report a daemon that died
			}
			sum += c
		}
		if sum == prev {
			break
		}
		prev = sum
		time.Sleep(20 * time.Millisecond)
	}
	return r.probe()
}

// keepAlive is one HTTP/1.1 connection owned by a load worker. Requests
// are written whole and responses parsed on the worker's goroutine, so
// the load generator spends little CPU next to the daemon it measures.
type keepAlive struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	hdr  []byte
}

func (k *keepAlive) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	if k.c == nil {
		c, err := net.Dial("tcp", k.addr)
		if err != nil {
			return 0, err
		}
		k.c, k.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	k.hdr = fmt.Appendf(k.hdr[:0], "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, k.addr, len(body))
	bufs := net.Buffers{k.hdr, body}
	if _, err := bufs.WriteTo(k.c); err != nil {
		k.close()
		return 0, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		k.close()
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		k.close()
	}
	return resp.StatusCode, err
}

func (k *keepAlive) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// deployment is one set of daemons a workload runs against.
type deployment struct {
	target  *daemon   // the daemon the load goes to
	daemons []*daemon // every daemon of the deployment
	// settle, when set, runs after the warm-up pass as the end of the
	// set-up: it waits until the daemons have absorbed the warm-up.
	settle func() error
	// after runs the output checks on the warm-up pass and the measured
	// phases.
	after func(warm *loadRun, phases []*loadRun) error
	stop  func() error
}

// runDaemon deploys the workload setupRepeats times on fresh daemons:
// each time it starts them, sends every distinct body once and lets the
// daemons settle (together the set-up time), measures n/setupRepeats
// requests, checks the outputs and stops them. Each deployment's times,
// every request's latency included, are scaled to the reference host by
// the probes taken during it (see probe and hostTime). Throughput,
// set-up time and peak memory are the median over the deployments, so
// one unlucky daemon placement or host moment does not set a run's
// figures. That holds for peak memory too: a journaled primary's peak
// is about 30% higher in some deployments than in others of the same
// run. Latency percentiles are taken over every request. A traced run
// deploys once and measures an untraced and a traced phase of n/2
// requests each, whose difference is the tracing overhead; it returns
// those phases.
func (r *run) runDaemon(path string, bodies []reqBody, n int, check respCheck, keep bool, deploy func() (*deployment, error)) ([]*loadRun, error) {
	reps, modes := setupRepeats, []bool{false}
	if r.traced {
		reps, modes = 1, []bool{false, true}
		r.zeroLayers()
	}
	var setups, rawSetups, lat, rawLat []float64
	per := map[string][]float64{}
	var instances []map[string]float64
	var phases []*loadRun
	for rep := 0; rep < reps; rep++ {
		probes := []float64{r.probe()}
		t0 := time.Now()
		dep, err := deploy()
		if err != nil {
			return nil, err
		}
		warm, err := r.drive(dep.target, path, bodies, 0, len(bodies), check, keep)
		if err != nil {
			return nil, err
		}
		r.attempted += warm.ops
		r.failed += warm.failed
		if dep.settle != nil {
			if err := dep.settle(); err != nil {
				return nil, err
			}
		}
		setup := time.Since(t0).Seconds()
		probes = append(probes, r.quietProbe(dep))
		phases = nil
		for i, on := range modes {
			r.tr.on = on
			// Responses are kept from the last phase, for the output checks.
			lr, err := r.measure(dep, path, bodies, n/reps/len(modes), check, keep && i == len(modes)-1)
			if err != nil {
				return nil, err
			}
			r.attempted += lr.ops
			r.failed += lr.failed
			phases = append(phases, lr)
			probes = append(probes, lr.probes...)
		}
		r.tr.on = false
		scale := probeRefMS / hostTime(probes)
		rawSetups = append(rawSetups, setup)
		setups = append(setups, setup*scale)
		if !r.traced {
			m, err := deploymentMetrics(phases[0], scale, dep.target.pid())
			if err != nil {
				return nil, err
			}
			for k, v := range m {
				per[k] = append(per[k], v)
			}
			for _, l := range phases[0].lat {
				lat = append(lat, l*scale)
			}
			rawLat = append(rawLat, phases[0].lat...)
			instances = append(instances, m)
		}
		if err := dep.after(warm, phases); err != nil {
			return nil, err
		}
		if err := dep.stop(); err != nil {
			return nil, err
		}
	}
	r.diag["setup_s"] = map[string]any{"scaled": setups, "unscaled": rawSetups}
	if r.traced {
		r.diag["latency"] = map[string]any{"untraced": tail(phases[0].lat), "traced": tail(phases[1].lat)}
		return phases, nil
	}
	r.set("setup_s", "s", median(setups))
	r.set("ops_per_s", "1/s", median(per["ops_per_s"]))
	r.set("ops_per_cpu_s", "1/s", median(per["ops_per_cpu_s"]))
	r.set("rss_mb", "MB", median(per["rss_mb"]))
	sort.Float64s(lat)
	r.set("p50_ms", "ms", sim.Percentile(lat, 0.5))
	r.set("p90_ms", "ms", sim.Percentile(lat, 0.9))
	raw := tail(rawLat)
	r.diag["latency"] = map[string]any{"scaled": tail(lat), "unscaled": raw}
	r.diag["unscaled"] = map[string]any{"setup_s": median(rawSetups), "ops_per_s": median(per["unscaled_ops_per_s"]),
		"ops_per_cpu_s": median(per["unscaled_ops_per_cpu_s"]), "p50_ms": raw["p50_ms"], "p90_ms": raw["p90_ms"]}
	r.diag["instances"] = instances
	return phases, nil
}

// deploymentMetrics is one deployment's throughput and peak memory, its
// measured phase's times scaled to the reference host by scale; the
// unscaled figures go to the diagnostics.
func deploymentMetrics(lr *loadRun, scale float64, pid int) (map[string]float64, error) {
	if lr.cpu <= 0 {
		return nil, fmt.Errorf("daemon used no measurable CPU over the phase")
	}
	hwm, err := procHWM(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	ops := float64(lr.ops)
	return map[string]float64{
		"ops_per_s":              ops / (lr.wall.Seconds() * scale),
		"ops_per_cpu_s":          ops / (lr.cpu.Seconds() * scale),
		"rss_mb":                 hwm,
		"unscaled_ops_per_s":     ops / lr.wall.Seconds(),
		"unscaled_ops_per_cpu_s": ops / lr.cpu.Seconds(),
		"host_scale":             scale,
	}, nil
}
