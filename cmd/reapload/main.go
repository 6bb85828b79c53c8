// Command reapload is the load generator for reapd: it drives the
// solve and report endpoints at full tilt from a pool of keep-alive
// connections, measures per-request latency, and renders a benchmark
// document — BENCH_serve.json, the serving-path counterpart of
// BENCH_solve.json.
//
// Usage:
//
//	reapload [-addr 127.0.0.1:8080] [-duration 10s] [-conns 4]
//	         [-batch 64] [-mode solve] [-devices 1024]
//	         [-tenant bench]
//	         [-chaos 0] [-chaos-seed 1]
//	         [-out BENCH_serve.json] [-max-p99 0]
//
// With -mode solve and -batch 1 every request is a POST /v1/solve;
// larger batches go through /v1/batch-solve with that many items per
// request (one item = one solve, the unit the rate limiter charges and
// the solves/sec figure counts). -mode report posts -batch consumption
// reports per request for devices cycling through [0, -devices); -mode
// mixed interleaves those two with α changes on /v1/alpha (α in
// 0.5–2) and one-line /v1/telemetry harvest steps for the same devices,
// so every kind of journaled mutation rides the traffic, and counts the
// acknowledged reports, steps and α changes (a step is acknowledged by
// a 200 whose result line carries no error). Budgets cycle through a fixed
// spread covering every operating region of the paper's configuration,
// so the server sees realistic key diversity rather than one hot
// budget.
//
// Back-pressure is honored, not fought: a 429 or 503 counts as shed
// (reported separately from errors, never in the latency population)
// and the worker backs off for the server's Retry-After or a capped
// exponential delay with jitter, whichever is longer. -chaos P tears
// connections on purpose: with probability P a worker writes a partial
// HTTP request over a raw socket and slams it shut — the client half of
// the fault-injection harness, for proving the daemon (and its journal)
// shrugs off vanishing clients. Torn connections are counted and
// excluded from latency.
//
// Replication is first-class: a 503 whose response carries a Leader
// header (a follower refusing a mutation with not_primary) is a
// redirect, not an error — the worker retargets every later request at
// the leader and the attempt never enters the latency population.
//
// -failover D turns a run into the kill-the-primary chaos harness: D
// into the window the process named by -kill-pid is SIGKILLed, the
// follower at -promote is promoted (polled until it accepts), and all
// traffic swings to it stamped with the new fencing epoch
// (X-Reap-Epoch). At the end the run asserts zero acked loss — every
// report acknowledged by either node must be present in the survivor's
// /v1/stats counters — and exits 1 otherwise.
//
// -max-p99 makes reapload an assertion: if the measured p99 per-request
// latency exceeds it, the run exits 1 — the CI serve-smoke and
// chaos-smoke jobs' gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/wire"
)

type stats struct {
	requests  int
	solves    int
	reports   int
	steps     int
	alphaSets int
	shed      int
	torn      int
	errors    int
	redirects int
	fenced    int
	latencies []time.Duration
}

type document struct {
	Addr       string  `json:"addr"`
	Mode       string  `json:"mode"`
	Batch      int     `json:"batch"`
	Conns      int     `json:"conns"`
	DurationS  float64 `json:"duration_s"`
	Requests   int     `json:"requests"`
	Solves     int     `json:"solves"`
	Reports    int     `json:"reports,omitempty"`
	Steps      int     `json:"steps,omitempty"`
	AlphaSets  int     `json:"alpha_sets,omitempty"`
	Shed       int     `json:"shed"`
	Torn       int     `json:"torn,omitempty"`
	Errors     int     `json:"errors"`
	Redirects  int     `json:"redirects,omitempty"`
	Fenced     int     `json:"fenced,omitempty"`
	SolvesPerS float64 `json:"solves_per_sec"`
	Latency    latency `json:"request_latency_us"`

	Failover *failoverDoc `json:"failover,omitempty"`
}

// failoverDoc records the kill-the-primary run: what was killed, who
// took over at which epoch, and the acked-loss reconciliation. Lost
// must be 0 — the run exits 1 otherwise.
type failoverDoc struct {
	KilledPid     int    `json:"killed_pid,omitempty"`
	PromotedAddr  string `json:"promoted_addr"`
	Epoch         uint64 `json:"epoch"`
	AckedReports  int    `json:"acked_reports"`
	ServerReports uint64 `json:"server_reports"`
	Lost          int64  `json:"lost_acked"`
}

type latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// payload is one pre-encoded request body, where to send it and the
// operations a 200 acknowledges. A telemetry body's steps count only if
// its result line carries no error.
type payload struct {
	path      string
	body      []byte
	solves    int
	reports   int
	steps     int
	alphaSets int
}

// Backoff bounds for shed requests: exponential from min to max, and
// the server's Retry-After honored up to honorCap so a load test
// cannot be stalled indefinitely by a long Retry-After.
const (
	backoffMin  = 20 * time.Millisecond
	backoffMax  = time.Second
	honorCap    = 2 * time.Second
	jitterFrac  = 0.25
	tearTimeout = time.Second
)

// target is where traffic currently goes: the address every worker
// posts to and the fencing epoch stamped on each request (zero = no
// header). A Leader redirect or a promotion swings it mid-run.
type target struct {
	mu    sync.Mutex
	addr  string
	epoch uint64
}

func (t *target) get() (string, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addr, t.epoch
}

// redirect follows a Leader hint: only the address moves, the epoch is
// whatever the last promotion established.
func (t *target) redirect(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addr = addr
}

// promote swings all traffic to the new primary at its epoch.
func (t *target) promote(addr string, epoch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addr, t.epoch = addr, epoch
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("reapload: ")

	addr := flag.String("addr", "127.0.0.1:8080", "reapd address (host:port)")
	duration := flag.Duration("duration", 10*time.Second, "measurement window")
	conns := flag.Int("conns", 4, "concurrent connections")
	batch := flag.Int("batch", 64, "solves or reports per request (1 = /v1/solve singles)")
	mode := flag.String("mode", "solve", "traffic mix: solve | report | mixed")
	devices := flag.Int("devices", 1024, "device id space for -mode report/mixed")
	tenant := flag.String("tenant", "bench", "X-Tenant header value")
	chaos := flag.Float64("chaos", 0, "probability of tearing a connection mid-request")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for tear decisions and backoff jitter")
	out := flag.String("out", "", "write the benchmark document to this file (default stdout only)")
	maxP99 := flag.Duration("max-p99", 0, "fail (exit 1) if request p99 exceeds this (0 = no gate)")
	failover := flag.Duration("failover", 0, "kill the primary this far into the window and promote -promote (0 = off)")
	promoteAddr := flag.String("promote", "", "follower address to promote during -failover")
	killPid := flag.Int("kill-pid", 0, "primary pid to SIGKILL during -failover (0 = operator kills it)")
	flag.Parse()
	if *batch < 1 || *conns < 1 || *devices < 1 {
		log.Fatal("batch, conns and devices must be positive")
	}
	if *chaos < 0 || *chaos >= 1 {
		log.Fatal("chaos must be in [0, 1)")
	}
	if *failover > 0 && (*promoteAddr == "" || *failover >= *duration) {
		log.Fatal("-failover needs -promote and must fire inside -duration")
	}

	payloads := buildPayloads(*mode, *batch, *devices)
	transport := &http.Transport{
		MaxIdleConns:        *conns * 2,
		MaxIdleConnsPerHost: *conns * 2,
	}
	client := &http.Client{Transport: transport}

	// Warm connections and verify the server speaks our schema before
	// the measured window.
	if err := probe(client, "http://"+*addr+payloads[0].path, *tenant, payloads[0].body); err != nil {
		log.Fatalf("probe: %v", err)
	}

	tgt := &target{addr: *addr}
	var fdoc *failoverDoc
	if *failover > 0 {
		fdoc = &failoverDoc{KilledPid: *killPid, PromotedAddr: *promoteAddr}
	}

	deadline := time.Now().Add(*duration)
	results := make([]stats, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drive(&results[w], client, tgt, *tenant, payloads, deadline,
				*chaos, rand.New(rand.NewSource(*chaosSeed+int64(w))), w)
		}(w)
	}
	if fdoc != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runFailover(client, tgt, fdoc, *failover)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total stats
	for i := range results {
		total.requests += results[i].requests
		total.solves += results[i].solves
		total.reports += results[i].reports
		total.steps += results[i].steps
		total.alphaSets += results[i].alphaSets
		total.shed += results[i].shed
		total.torn += results[i].torn
		total.errors += results[i].errors
		total.redirects += results[i].redirects
		total.fenced += results[i].fenced
		total.latencies = append(total.latencies, results[i].latencies...)
	}
	if len(total.latencies) == 0 {
		log.Fatal("no requests completed")
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })

	doc := document{
		Addr:       *addr,
		Mode:       *mode,
		Batch:      *batch,
		Conns:      *conns,
		DurationS:  elapsed.Seconds(),
		Requests:   total.requests,
		Solves:     total.solves,
		Reports:    total.reports,
		Steps:      total.steps,
		AlphaSets:  total.alphaSets,
		Shed:       total.shed,
		Torn:       total.torn,
		Errors:     total.errors,
		Redirects:  total.redirects,
		Fenced:     total.fenced,
		SolvesPerS: float64(total.solves) / elapsed.Seconds(),
		Latency: latency{
			Mean: mean(total.latencies),
			P50:  percentile(total.latencies, 0.50),
			P90:  percentile(total.latencies, 0.90),
			P99:  percentile(total.latencies, 0.99),
			P999: percentile(total.latencies, 0.999),
			Max:  us(total.latencies[len(total.latencies)-1]),
		},
	}
	if fdoc != nil {
		// Reconcile acked mutations against the survivor: every report a
		// worker saw a 200 for — from either primary — must be counted by
		// the promoted node, or acked state was lost in the failover.
		fdoc.AckedReports = total.reports
		finalAddr, _ := tgt.get()
		sr, err := fetchStats(client, finalAddr)
		if err != nil {
			log.Fatalf("failover: final stats from %s: %v", finalAddr, err)
		}
		fdoc.ServerReports = sr.Reports
		fdoc.Lost = int64(fdoc.AckedReports) - int64(sr.Reports)
		if fdoc.Lost < 0 {
			fdoc.Lost = 0 // server may hold more (unacked applies); never fewer
		}
		doc.Failover = fdoc
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	os.Stdout.Write(raw)
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if doc.Failover != nil && doc.Failover.Lost > 0 {
		log.Fatalf("failover lost %d acked reports (acked %d, server counts %d)",
			doc.Failover.Lost, doc.Failover.AckedReports, doc.Failover.ServerReports)
	}
	if *maxP99 > 0 && doc.Latency.P99 > us(*maxP99) {
		log.Fatalf("p99 %.0f µs exceeds gate %v", doc.Latency.P99, *maxP99)
	}
}

// runFailover is the chaos choreography: sleep into the window, SIGKILL
// the primary, promote the follower (polling until it answers — it may
// still be catching up on its stream), then swing every worker to it at
// the new epoch.
func runFailover(client *http.Client, tgt *target, fdoc *failoverDoc, after time.Duration) {
	time.Sleep(after)
	if fdoc.KilledPid > 0 {
		if err := syscall.Kill(fdoc.KilledPid, syscall.SIGKILL); err != nil {
			log.Fatalf("failover: kill -9 %d: %v", fdoc.KilledPid, err)
		}
		log.Printf("failover: killed primary pid %d", fdoc.KilledPid)
	}
	epoch, err := promoteNode(client, fdoc.PromotedAddr)
	if err != nil {
		log.Fatalf("failover: promoting %s: %v", fdoc.PromotedAddr, err)
	}
	fdoc.Epoch = epoch
	tgt.promote(fdoc.PromotedAddr, epoch)
	log.Printf("failover: promoted %s at epoch %d", fdoc.PromotedAddr, epoch)
}

// promoteNode posts /v1/promote until the follower accepts, returning
// the epoch now in force.
func promoteNode(client *http.Client, addr string) (uint64, error) {
	deadline := time.Now().Add(15 * time.Second)
	body := []byte(`{"v":1}`)
	for {
		req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/promote", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var pr wire.PromoteResponse
				if err := json.Unmarshal(raw, &pr); err != nil {
					return 0, fmt.Errorf("decoding promote response: %v", err)
				}
				return pr.Epoch, nil
			}
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
		if time.Now().After(deadline) {
			return 0, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fetchStats reads /v1/stats from addr.
func fetchStats(client *http.Client, addr string) (*wire.StatsResponse, error) {
	resp, err := client.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var sr wire.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// drive is one worker's load loop: post payloads until the deadline,
// honoring back-pressure, following Leader redirects, and injecting
// client-side tears.
func drive(st *stats, client *http.Client, tgt *target, tenant string, payloads []payload,
	deadline time.Time, chaosP float64, rng *rand.Rand, w int) {
	backoff := backoffMin
	var answer bytes.Buffer // a telemetry answer, read for its result line
	for i := 0; time.Now().Before(deadline); i++ {
		p := payloads[(w+i)%len(payloads)]
		addr, epoch := tgt.get()
		if chaosP > 0 && rng.Float64() < chaosP {
			tear(addr, p, rng)
			st.torn++
			continue
		}
		t0 := time.Now()
		sink := io.Discard
		if p.steps > 0 {
			answer.Reset()
			sink = &answer
		}
		status, retryAfter, leader, err := post(client, "http://"+addr+p.path, tenant, epoch, p.body, sink)
		switch {
		case err != nil:
			// Connection-level failure — during a failover window this is
			// the dead primary; back off instead of hammering it.
			st.requests++
			st.errors++
			time.Sleep(withJitter(backoff, rng))
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
		case status == http.StatusOK:
			st.requests++
			st.latencies = append(st.latencies, time.Since(t0))
			st.solves += p.solves
			st.reports += p.reports
			st.alphaSets += p.alphaSets
			if p.steps > 0 && stepped(answer.Bytes()) {
				st.steps += p.steps
			}
			backoff = backoffMin
		case status == http.StatusServiceUnavailable && leader != "":
			// A follower pointing at its primary: a redirect, not an
			// error, and never part of the latency population.
			st.requests++
			st.redirects++
			tgt.redirect(leader)
		case status == http.StatusConflict:
			// stale_epoch: we hit a fenced node, or our epoch view is
			// behind a promotion in progress. Counted separately; the
			// target will be swung by the failover controller.
			st.requests++
			st.fenced++
			time.Sleep(withJitter(backoff, rng))
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			// Shed, not failed: the server asked us to slow down.
			st.requests++
			st.shed++
			sleepFor := withJitter(backoff, rng)
			if retryAfter > sleepFor {
				sleepFor = min(retryAfter, honorCap)
			}
			time.Sleep(sleepFor)
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
		default:
			st.requests++
			st.errors++
		}
	}
}

// stepped reports whether a one-event telemetry answer is one result
// line without an error: only then was the step applied and journaled.
func stepped(answer []byte) bool {
	var res wire.TelemetryResult
	return json.Unmarshal(answer, &res) == nil && res.Error == nil
}

// withJitter spreads d by ±jitterFrac so backed-off workers do not
// stampede back in lockstep.
func withJitter(d time.Duration, rng *rand.Rand) time.Duration {
	spread := 1 + jitterFrac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * spread)
}

// tear opens a raw connection, writes a deliberately incomplete HTTP
// request — at least the request line, never the full body — and slams
// the socket shut: the client half of the chaos harness.
func tear(addr string, p payload, rng *rand.Rand) {
	conn, err := net.DialTimeout("tcp", addr, tearTimeout)
	if err != nil {
		return
	}
	defer conn.Close()
	raw := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		p.path, addr, len(p.body), p.body)
	cut := len(raw) - 1 - rng.Intn(len(p.body)+len(raw)/2)
	if cut < len("POST / HTTP/1.1\r\n") {
		cut = len("POST / HTTP/1.1\r\n")
	}
	_ = conn.SetWriteDeadline(time.Now().Add(tearTimeout))
	_, _ = io.WriteString(conn, raw[:cut])
}

// buildPayloads pre-encodes a cycle of request bodies. Solve budgets
// sweep the dead region through saturation (0–11 J for the paper's
// configuration) so consecutive requests exercise distinct solves;
// report batches walk the device space in sorted runs, the shape a
// fleet gateway produces. Mixed mode adds an α change and a harvest
// step per variant, each for one device of the space.
func buildPayloads(mode string, batch, devices int) []payload {
	budget := func(i int) float64 { return 11.0 * float64(i%97) / 97 }
	const variants = 16
	var solves, reports, alphas, steps []payload
	for v := 0; v < variants; v++ {
		if batch == 1 {
			solves = append(solves, payload{path: "/v1/solve", solves: 1,
				body: mustEncode(&wire.SolveRequest{V: wire.Version, BudgetJ: budget(v)})})
		} else {
			items := make([]wire.SolveItem, batch)
			for i := range items {
				items[i] = wire.SolveItem{BudgetJ: budget(v*batch + i)}
			}
			solves = append(solves, payload{path: "/v1/batch-solve", solves: batch,
				body: mustEncode(&wire.BatchSolveRequest{V: wire.Version, Items: items})})
		}
		reps := make([]wire.DeviceReport, batch)
		for i := range reps {
			reps[i] = wire.DeviceReport{Device: (v*batch + i*7) % devices, ConsumedJ: 1e-6}
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].Device < reps[j].Device })
		reports = append(reports, payload{path: "/v1/report", reports: batch,
			body: mustEncode(&wire.ReportRequest{V: wire.Version, Reports: reps})})
		device := (v * 37) % devices
		alpha := 0.5 + 1.5*float64(v)/(variants-1)
		harvest := budget(v * 13)
		alphas = append(alphas, payload{path: "/v1/alpha", alphaSets: 1,
			body: mustEncode(&wire.AlphaRequest{V: wire.Version, Device: device, Alpha: alpha})})
		steps = append(steps, payload{path: "/v1/telemetry", steps: 1,
			body: append(mustEncode(&wire.TelemetryEvent{V: wire.Version, Device: device, HarvestJ: &harvest}), '\n')})
	}
	switch mode {
	case "solve":
		return solves
	case "report":
		return reports
	case "mixed":
		var mixed []payload
		for i := range solves {
			mixed = append(mixed, solves[i], reports[i], alphas[i], steps[i])
		}
		return mixed
	default:
		log.Fatalf("unknown -mode %q (solve | report | mixed)", mode)
		return nil
	}
}

func mustEncode(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	return raw
}

// post sends one request and reports its status plus any Retry-After
// and Leader hints. A nonzero epoch rides the X-Reap-Epoch header so a
// fenced ex-primary rejects us instead of acknowledging into a dead
// log. The answer is copied to sink, which drains it so the connection
// is reusable; only telemetry answers are parsed, for their result
// line — correctness is the service tests' job, throughput is ours.
func post(client *http.Client, url, tenant string, epoch uint64, body []byte, sink io.Writer) (status int, retryAfter time.Duration, leader string, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	if epoch > 0 {
		req.Header.Set("X-Reap-Epoch", strconv.FormatUint(epoch, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, "", err
	}
	_, _ = io.Copy(sink, resp.Body)
	resp.Body.Close()
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retryAfter, resp.Header.Get("Leader"), nil
}

// probe sends one request outside the measured window and surfaces its
// body on failure, so a misconfigured run dies with the server's error
// instead of a thousand status-4xx counts.
func probe(client *http.Client, url, tenant string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return us(sum) / float64(len(ds))
}

// percentile reads the q-quantile from sorted latencies using the
// nearest-rank method.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return us(sorted[i])
}
