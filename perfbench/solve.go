package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	reap "repro"
	"repro/internal/core"
	"repro/internal/service"
	"repro/wire"
)

const (
	// daemonDevices is the fleet every daemon owns. Boot at this size
	// takes ~0.4s, long enough for a steady set-up time.
	daemonDevices = 262144
	batchItems    = 64
	maxBudgetJ    = 11.0 // covers all four Figure 5 regions of the default config
	hotBodies     = 64
	// distinctConfigs is 4× reap's plan memo cap (planBackendMaxPlans,
	// 4096), so about three solves in four compile a plan.
	distinctConfigs = 16384
	memoCap         = 4096
	setupRepeats    = 5
	// Nominal request rates on a 2-vCPU host; they size each run's fixed
	// amount of work to about --seconds.
	hotReqPerSec      = 2800
	distinctReqPerSec = 750
)

// solveInputs is one solve workload's distinct request bodies and the
// configs each item carries (cfgIdx -1 = the paper default).
type solveInputs struct {
	bodies  []reqBody
	items   [][]wire.SolveItem
	cfgIdx  [][]int
	configs []reap.Config
}

func makeSolveInputs(workload string, seed int64) *solveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &solveInputs{}
	nBodies := hotBodies
	if workload == "solve-distinct" {
		nBodies = distinctConfigs / batchItems
		in.configs = make([]reap.Config, distinctConfigs)
		for c := range in.configs {
			cfg := reap.DefaultConfig()
			cfg.Alpha = 0.5 + 1.5*rng.Float64()
			for i := range cfg.DPs {
				cfg.DPs[i].Accuracy *= 1 + 0.04*(rng.Float64()-0.5)
				cfg.DPs[i].Power *= 1 + 0.10*(rng.Float64()-0.5)
			}
			in.configs[c] = cfg
		}
	}
	for k := 0; k < nBodies; k++ {
		items := make([]wire.SolveItem, batchItems)
		idx := make([]int, batchItems)
		for i := range items {
			items[i].BudgetJ = maxBudgetJ * rng.Float64()
			idx[i] = -1
			if in.configs != nil {
				idx[i] = k*batchItems + i
				cfg := in.configs[idx[i]]
				items[i].Config = &wire.Config{Alpha: &cfg.Alpha}
				for _, dp := range cfg.DPs {
					items[i].Config.DesignPoints = append(items[i].Config.DesignPoints,
						wire.DesignPoint{Name: dp.Name, Accuracy: dp.Accuracy, PowerW: dp.Power})
				}
			}
		}
		raw, err := json.Marshal(&wire.BatchSolveRequest{V: wire.Version, Items: items})
		if err != nil {
			panic(err) // plain structs of finite floats always encode
		}
		in.bodies = append(in.bodies, reqBody{raw: raw, ops: batchItems})
		in.items = append(in.items, items)
		in.cfgIdx = append(in.cfgIdx, idx)
	}
	return in
}

// memoMissShare is the share of items whose config lies outside the
// first memoCap distinct fingerprints in send order: the solves that
// recompile a plan once the memo is full.
func (in *solveInputs) memoMissShare() float64 {
	seen := map[uint64]bool{}
	for _, items := range in.items {
		for _, it := range items {
			if fp := it.Config.ToReap().Fingerprint(); !seen[fp] && len(seen) < memoCap {
				seen[fp] = true
			}
		}
	}
	miss, total := 0, 0
	for _, items := range in.items {
		for _, it := range items {
			total++
			if !seen[it.Config.ToReap().Fingerprint()] {
				miss++
			}
		}
	}
	return float64(miss) / float64(total)
}

// solveErrors counts per-item errors in a batch response without
// decoding it on the load path.
func solveErrors(_ int, resp []byte) int { return bytes.Count(resp, []byte(`"error":`)) }

func (r *run) runSolve() error {
	in := makeSolveInputs(r.workload, r.seed)
	rate := hotReqPerSec
	if r.workload == "solve-distinct" {
		rate = distinctReqPerSec
	}
	n := r.seconds * rate
	missShare := in.memoMissShare()
	props := map[string]any{
		"daemon_devices": daemonDevices, "batch_items": batchItems, "distinct_bodies": len(in.bodies),
		"distinct_configs": max(1, len(in.configs)), "core.memo_miss_share": missShare,
		"req_bytes_per_op": meanBytes(in.bodies) / batchItems,
		"budget_range_j":   []float64{0, maxBudgetJ}, "requests": n, "connections": 2,
	}
	r.diag["workload"] = props

	c := newClient()
	defer c.CloseIdleConnections()
	respBytes, kept := 0, 0
	phases, err := r.runDaemon("/v1/batch-solve", in.bodies, n, solveErrors, true, func() (*deployment, error) {
		d, err := r.startDaemon("reapd", "-addr", "127.0.0.1:0", "-devices", strconv.Itoa(daemonDevices))
		if err != nil {
			return nil, err
		}
		after := func(warm *loadRun, phases []*loadRun) error {
			last := phases[len(phases)-1]
			r.checkSolves(d, in, warm, last)
			for _, raw := range last.last {
				respBytes += len(raw)
				kept++
			}
			return nil
		}
		return &deployment{target: d, daemons: []*daemon{d}, after: after, stop: d.stop}, waitHealthy(c, d)
	})
	if err != nil {
		return err
	}
	props["resp_bytes_per_op"] = float64(respBytes) / float64(kept*batchItems)
	if !r.traced {
		return nil
	}
	r.set("core.memo_miss_share", "share", missShare)
	lay, err := r.solveLayers(in)
	if err != nil {
		return err
	}
	return r.writeLedger(lay, phases[0], phases[1])
}

// checkSolves re-solves in process every item of the responses each
// phase kept, and asks the daemon for the paper's headline allocation.
func (r *run) checkSolves(d *daemon, in *solveInputs, phases ...*loadRun) {
	defPlan, err := core.NewPlan(core.DefaultConfig())
	if err != nil {
		r.check("default-plan", false, "%v", err)
		return
	}
	plans := map[int]*core.Plan{-1: defPlan}
	bad, checked := 0, 0
	var firstBad string
	for _, lr := range phases {
		for k, raw := range lr.last {
			if raw == nil {
				continue // not sent in this phase, or failed and counted by drive
			}
			var resp wire.BatchSolveResponse
			if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Results) != len(in.items[k]) {
				bad += len(in.items[k])
				firstBad = fmt.Sprintf("body %d: undecodable or short response: %v", k, err)
				continue
			}
			for i, it := range in.items[k] {
				checked++
				ci := in.cfgIdx[k][i]
				p := plans[ci]
				if p == nil {
					if p, err = core.NewPlan(in.configs[ci]); err != nil {
						bad++
						firstBad = fmt.Sprintf("config %d: %v", ci, err)
						continue
					}
					plans[ci] = p
				}
				want, err := p.Solve(it.BudgetJ)
				got := resp.Results[i].Solve
				if err != nil || got == nil || !sameAlloc(want, got.Allocation) {
					bad++
					if firstBad == "" {
						firstBad = fmt.Sprintf("body %d item %d budget %g: got %+v want %+v (err %v)", k, i, it.BudgetJ, got, want, err)
					}
				}
			}
		}
	}
	r.check("solves-match-in-process-plan", bad == 0, "%d of %d items disagree; first: %s", bad, checked, firstBad)
	r.diag["checked_items"] = checked

	var buf bytes.Buffer
	conn := &keepAlive{addr: d.addr}
	defer conn.close()
	code, err := conn.post("/v1/solve", []byte(`{"v":1,"budget_j":5}`), &buf)
	var one wire.SolveResponse
	ok := err == nil && code == http.StatusOK && json.Unmarshal(buf.Bytes(), &one) == nil &&
		math.Abs(one.ExpectedAccuracy-0.8201) < 5e-5
	r.check("paper-headline-5J", ok, "status %d err %v: expected accuracy %.6f, want 0.8201", code, err, one.ExpectedAccuracy)
}

// sameAlloc compares a daemon allocation with an in-process solve to
// 1e-9 s per entry.
func sameAlloc(want core.Allocation, got wire.Allocation) bool {
	if len(want.Active) != len(got.ActiveS) {
		return false
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }
	for i := range want.Active {
		if !near(want.Active[i], got.ActiveS[i]) {
			return false
		}
	}
	return near(want.Off, got.OffS) && near(want.Dead, got.DeadS)
}

// layerTimes is the in-process replay's per-request figures, each the
// mean over sampled bodies of the body's median over repetitions.
type layerTimes struct {
	handlerUS  float64
	layers     []ledgerRow // measured layers in handler order
	residualUS float64
	// residualCovers names what the residual is: handler time the
	// measured layers do not cover.
	residualCovers string
	transport      float64
	perOp          int
}

// solveLayers replays a sample of the workload's bodies in process,
// against a service configured like the daemon, at GOMAXPROCS 1 so that
// layer times are CPU times and add up. Each layer is timed around a
// call to its public function; fingerprint, compile and solve run inside
// SolveBatch and are timed by separate calls on the same items.
func (r *run) solveLayers(in *solveInputs) (*layerTimes, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	svc, err := service.New(service.Config{Devices: daemonDevices})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	h := svc.Handler()
	serve := func(raw []byte) (rec *httptest.ResponseRecorder, start, end time.Time) {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch-solve", bytes.NewReader(raw))
		rec = httptest.NewRecorder()
		start = time.Now()
		h.ServeHTTP(rec, req)
		return rec, start, time.Now()
	}
	// Warm the process-wide plan memo exactly as the daemon's was: boot
	// memoized the default config, then every body once, in order.
	for _, b := range in.bodies {
		if rec, _, _ := serve(b.raw); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process warm-up: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	memoized := func(ci int) bool { return ci < memoCap-1 } // the default config holds one slot

	sample := sampleBodies(len(in.bodies), 64)
	reps := 9
	if r.workload == "solve-hot" {
		reps = 25
	}
	ctx := context.Background()
	var encBuf bytes.Buffer
	var respBytes, compiles float64
	var compileDur time.Duration
	for rep := 0; rep < reps; rep++ {
		for _, k := range sample {
			raw := in.bodies[k].raw
			opID, layersID, sbID := r.tr.id(), r.tr.id(), r.tr.id()
			req := opID
			rec, h0, h1 := serve(raw)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("in-process replay: status %d", rec.Code)
			}
			respBytes += float64(rec.Body.Len())
			r.tr.add(span{Parent: opID, Req: req, Body: k, Name: "service.handler", Start: r.tr.ns(h0), End: r.tr.ns(h1)})

			l0 := time.Now()
			var br wire.BatchSolveRequest
			if err := wire.DecodeStrict(bytes.NewReader(raw), &br); err != nil {
				return nil, err
			}
			t1 := time.Now()
			reqs := make([]reap.Request, len(br.Items))
			for i, it := range br.Items {
				reqs[i] = it.ToRequest()
			}
			t2 := time.Now()
			results := reap.SolveBatch(ctx, reqs)
			t3 := time.Now()
			resp := wire.BatchSolveResponse{V: wire.Version, Results: make([]wire.SolveResult, len(results))}
			for i, res := range results {
				if res.Err != nil {
					return nil, fmt.Errorf("in-process SolveBatch item %d: %w", i, res.Err)
				}
				resp.Results[i].Solve = wire.NewSolveResponse(reqs[i].Config, res.Allocation)
			}
			t4 := time.Now()
			encBuf.Reset()
			if err := json.NewEncoder(&encBuf).Encode(&resp); err != nil {
				return nil, err
			}
			t5 := time.Now()
			for _, s := range []struct {
				name       string
				start, end time.Time
				id         int
			}{
				{"wire.decode", l0, t1, 0}, {"wire.convert", t1, t2, 0}, {"reap.solvebatch", t2, t3, sbID},
				{"wire.build", t3, t4, 0}, {"wire.encode", t4, t5, 0},
			} {
				r.tr.add(span{ID: s.id, Parent: layersID, Req: req, Body: k, Name: s.name, Start: r.tr.ns(s.start), End: r.tr.ns(s.end)})
			}
			r.tr.add(span{ID: layersID, Parent: opID, Req: req, Body: k, Name: "layers", Start: r.tr.ns(l0), End: r.tr.ns(t5)})

			// The parts of SolveBatch, on the same items.
			plans := make([]*core.Plan, len(reqs))
			var missing []reap.Config
			for i := range reqs {
				if plans[i], err = core.NewPlan(reqs[i].Config); err != nil {
					return nil, err
				}
				if ci := in.cfgIdx[k][i]; ci >= 0 && !memoized(ci) {
					missing = append(missing, reqs[i].Config)
				}
			}
			f0 := time.Now()
			for i := range reqs {
				sink ^= reqs[i].Config.Fingerprint()
			}
			f1 := time.Now()
			for _, cfg := range missing {
				if _, err := core.NewPlan(cfg); err != nil {
					return nil, err
				}
			}
			f2 := time.Now()
			var a core.Allocation
			for i := range reqs {
				if err := plans[i].SolveInto(reqs[i].Budget, &a); err != nil {
					return nil, err
				}
			}
			f3 := time.Now()
			r.tr.add(span{Parent: sbID, Req: req, Body: k, Name: "reap.fingerprint", Start: r.tr.ns(f0), End: r.tr.ns(f1)})
			if len(missing) > 0 {
				r.tr.add(span{Parent: sbID, Req: req, Body: k, Name: "core.compile", Start: r.tr.ns(f1), End: r.tr.ns(f2)})
				compiles += float64(len(missing))
				compileDur += f2.Sub(f1)
			}
			r.tr.add(span{Parent: sbID, Req: req, Body: k, Name: "core.solve", Start: r.tr.ns(f2), End: r.tr.ns(f3)})
			if err := r.route(h, "/v1/batch-solve", []byte(`{"v":1,"items":[]}`), &wire.BatchSolveRequest{},
				&wire.BatchSolveResponse{V: wire.Version, Results: []wire.SolveResult{}}, opID, k); err != nil {
				return nil, err
			}
			r.tr.add(span{ID: opID, Req: req, Body: k, Name: "op", Start: r.tr.ns(h0), End: r.tr.ns(time.Now())})
		}
	}

	lay := &layerTimes{perOp: batchItems,
		residualCovers: "per-item work between the layers: the request and result slices, error checks"}
	lay.handlerUS = r.tr.perBody("service.handler", false)
	for _, name := range []string{"service.route", "wire.decode", "wire.convert", "reap.solvebatch", "reap.fingerprint", "core.compile", "core.solve", "wire.build", "wire.encode"} {
		lay.layers = append(lay.layers, ledgerRow{Layer: name, SelfUS: r.tr.perBody(name, true)})
	}
	sumUS := 0.0
	for _, row := range lay.layers {
		sumUS += row.SelfUS
	}
	lay.residualUS = lay.handlerUS - sumUS

	r.set("service.handler_us", "us", lay.handlerUS)
	r.set("service.residual_us", "us", lay.residualUS)
	r.set("service.route_us", "us", r.tr.perBody("service.route", true))
	r.set("wire.decode_us", "us", r.tr.perBody("wire.decode", false))
	r.set("wire.convert_us", "us", r.tr.perBody("wire.convert", false))
	r.set("wire.build_us", "us", r.tr.perBody("wire.build", false))
	r.set("wire.encode_us", "us", r.tr.perBody("wire.encode", false))
	r.set("reap.solvebatch_us", "us", r.tr.perBody("reap.solvebatch", false))
	r.set("reap.fingerprint_us", "us", r.tr.perBody("reap.fingerprint", false))
	r.set("core.solve_ns", "ns", 1e3*r.tr.perBody("core.solve", false)/batchItems)
	if compiles > 0 {
		r.set("core.compile_us", "us", us(compileDur)/compiles)
	} else {
		r.set("core.compile_us", "us", compileDefault())
	}
	r.set("wire.req_bytes", "B", meanBytes(in.bodies))
	r.set("wire.resp_bytes", "B", respBytes/float64(reps*len(sample)))

	// Allocation counts of the two wire layers that allocate per item.
	k := sample[len(sample)/2]
	raw := in.bodies[k].raw
	r.set("wire.decode_allocs", "count", testing.AllocsPerRun(20, func() {
		var br wire.BatchSolveRequest
		_ = wire.DecodeStrict(bytes.NewReader(raw), &br)
	}))
	var br wire.BatchSolveRequest
	if err := wire.DecodeStrict(bytes.NewReader(raw), &br); err != nil {
		return nil, err
	}
	reqs := make([]reap.Request, len(br.Items))
	for i, it := range br.Items {
		reqs[i] = it.ToRequest()
	}
	results := reap.SolveBatch(ctx, reqs)
	r.set("wire.build_allocs", "count", testing.AllocsPerRun(20, func() {
		resp := wire.BatchSolveResponse{V: wire.Version, Results: make([]wire.SolveResult, len(results))}
		for i, res := range results {
			resp.Results[i].Solve = wire.NewSolveResponse(reqs[i].Config, res.Allocation)
		}
	}))
	if err := r.measureAppend(); err != nil {
		return nil, err
	}
	return lay, nil
}

// compileDefault times core.NewPlan on the paper's default config, the
// one compile a solve-hot daemon performs.
func compileDefault() float64 {
	var ds []float64
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if _, err := core.NewPlan(core.DefaultConfig()); err != nil {
			return 0
		}
		ds = append(ds, us(time.Since(t0)))
	}
	return median(ds)
}

// sampleBodies picks up to n body indices spread evenly over all bodies.
func sampleBodies(total, n int) []int {
	if n > total {
		n = total
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * total / n
	}
	return out
}

func meanBytes(bodies []reqBody) float64 {
	sum := 0
	for _, b := range bodies {
		sum += len(b.raw)
	}
	return float64(sum) / float64(len(bodies))
}
