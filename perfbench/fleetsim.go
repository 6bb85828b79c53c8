package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	reap "repro"
	"repro/internal/core"
	"repro/internal/solar"
	"repro/sim"
)

// simWorlds are the corpus worlds that do not use the solve cache, so
// removing the cache cannot change this workload's outputs.
var simWorlds = []string{"clear-month", "cloudy-bursts", "fault-storm", "fleet-churn", "geo-fleet", "seasonal-aging"}

const (
	// simDevices overrides each world's fleet size; the pinned digests
	// below hold for it at the default seed.
	simDevices = 96
	// simPassesPer10s sizes a run: each pass runs every world once
	// (126,720 device-hours at 96 devices).
	simPassesPer10s = 4
)

// simDigests are the SHA-256 digests of each world's Trace.Bytes() at
// simDevices devices and the worlds' own seeds (the default seed).
var simDigests = map[string]string{
	"clear-month":    "ccfe17c59532047d6e3cf2528637db688ded66ff162bb148845bf4a53d866bfc",
	"cloudy-bursts":  "40a38659544ddecc0c7b2b5dae85ab15ddb097741c9a2a5f872bb5d86dd0597d",
	"fault-storm":    "6eb84fe48f3e27e6bd6a2b6acd745f2fcf56cb97b3347fb5f5f78480ad231134",
	"fleet-churn":    "cce463046b7471eb4ef1c719d179cdb009006446ea63bf5fe0e4aaa11a05d4f8",
	"geo-fleet":      "b4ecbf67a8942809bbcf4961bd277b1c042ebf2699bdf067d6b02b21315f4423",
	"seasonal-aging": "183ae77cfd9a0a69ecedc28ca0c3e5ac7fb4ce6ef678a1861c62238a7cef6956",
}

// worldRun is one sim.Run call as measured from outside.
type worldRun struct {
	wall        time.Duration
	scale       float64       // to the reference host, from the probes of the run's pass (see probe)
	elapsed     time.Duration // Summary.Elapsed: the time inside Fleet.Run
	cpu         time.Duration
	deviceHours int
	mallocs     uint64
	gcs         uint32
	res         *sim.Result
}

// scaled is a time measured in this run scaled to the reference host.
func (w *worldRun) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * w.scale)
}

func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// worlds loads the fixed worlds, overriding only Devices and, for a
// non-default seed, Seed.
func (r *run) worlds() ([]sim.Scenario, error) {
	corpus, err := sim.Corpus()
	if err != nil {
		return nil, err
	}
	var out []sim.Scenario
	for i, name := range simWorlds {
		sc, err := corpus.Lookup(name)
		if err != nil {
			return nil, err
		}
		sc.Devices = simDevices
		if r.seed != defaultSeed {
			sc.Seed = r.seed*1000003 + int64(i)
		}
		out = append(out, sc)
	}
	return out, nil
}

func runWorld(sc sim.Scenario, memStats bool) (*worldRun, error) {
	var m0, m1 runtime.MemStats
	if memStats {
		runtime.ReadMemStats(&m0)
	}
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := sim.Run(context.Background(), sc)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	w := &worldRun{wall: wall, elapsed: res.Summary.Elapsed, cpu: cpu1 - cpu0,
		deviceHours: res.Summary.Devices * res.Summary.Steps, res: res}
	if memStats {
		runtime.ReadMemStats(&m1)
		w.mallocs, w.gcs = m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC
	}
	return w, nil
}

func traceDigest(t *sim.Trace) (string, error) {
	h := sha256.New()
	if err := t.WriteText(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkWorld re-solves every recorded step with a compiled plan and
// requires the recorded schedule to reach the same objective: the
// worlds run the simplex or enumerate backends, so this is a
// differential check that holds at any seed.
func checkWorld(res *sim.Result, plans map[uint64]*core.Plan) (bad, checked int, first string) {
	for i := range res.Trace.Records {
		rec := &res.Trace.Records[i]
		cfg := res.Configs[rec.Device]
		fp := cfg.Fingerprint()
		p := plans[fp]
		if p == nil {
			var err error
			if p, err = core.NewPlan(cfg); err != nil {
				return 1, 1, err.Error()
			}
			plans[fp] = p
		}
		checked++
		want, err := p.Solve(rec.SolveBudgetJ)
		got := reap.Allocation{Active: rec.Active, Off: rec.OffS, Dead: rec.DeadS}
		if err != nil || math.Abs(got.Objective(cfg)-want.Objective(cfg)) > 1e-6 {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s step %d device %d budget %g: objective %g, plan %g (%v)",
					res.Scenario.Name, rec.Step, rec.Device, rec.SolveBudgetJ, got.Objective(cfg), want.Objective(cfg), err)
			}
		}
	}
	return bad, checked, first
}

func (r *run) runFleetSim() error {
	worlds, err := r.worlds()
	if err != nil {
		return err
	}
	passes := max(1, (r.seconds*simPassesPer10s+5)/10)
	if r.traced {
		passes = 2 // one untraced, one traced: the difference is the tracing overhead
	}
	perWorld := map[string]int{}
	for _, sc := range worlds {
		perWorld[sc.Name] = sc.Devices * sc.Days * 24
	}
	r.diag["workload"] = map[string]any{
		"worlds": simWorlds, "devices_per_world": simDevices, "device_hours_per_world": perWorld,
		"passes": passes, "seed_override": r.seed != defaultSeed,
	}

	plans := map[uint64]*core.Plan{}
	digests := map[string]string{}
	var runs []*worldRun
	var setups []float64
	var bad, checked int
	var firstBad string
	for pass := 0; pass < passes; pass++ {
		r.tr.on = r.traced && pass == 1
		probes := []float64{r.probe()}
		for _, sc := range worlds {
			w, err := runWorld(sc, r.traced)
			if err != nil {
				return err
			}
			probes = append(probes, r.probe())
			if r.tr.on {
				op := r.tr.id()
				end := r.tr.ns(time.Now())
				start := end - w.wall.Nanoseconds()
				r.tr.add(span{ID: op, Req: op, Body: -1, Name: "sim.run", Start: start, End: end})
				// Fleet.Run ends just before sim.Run summarizes; its span is
				// placed from Summary.Elapsed, not observed.
				r.tr.add(span{Parent: op, Req: op, Body: -1, Name: "reap.fleet_run", Start: end - w.elapsed.Nanoseconds(), End: end})
			}
			runs = append(runs, w)
			// The first and last passes' digests must agree at any seed.
			if pass == 0 || pass == passes-1 {
				d, err := traceDigest(w.res.Trace)
				if err != nil {
					return err
				}
				if prev, ok := digests[sc.Name]; ok {
					r.check("deterministic-"+sc.Name, prev == d, "pass %d digest %s differs from %s", pass, d, prev)
				}
				digests[sc.Name] = d
			}
			if pass == 0 {
				b, c, f := checkWorld(w.res, plans)
				bad, checked = bad+b, checked+c
				if firstBad == "" {
					firstBad = f
				}
			}
			if !r.traced || pass == 0 {
				w.res = nil // release the records; the traced pass keeps them for replay
			}
		}
		setup := 0.0
		for _, w := range runs[pass*len(worlds):] {
			w.scale = probeRefMS / hostTime(probes)
			setup += w.scaled(w.wall - w.elapsed).Seconds()
		}
		setups = append(setups, setup)
	}
	r.check("steps-match-plan-objective", bad == 0, "%d of %d steps off; first: %s", bad, checked, firstBad)
	if r.seed == defaultSeed {
		for _, name := range simWorlds {
			want, ok := simDigests[name]
			r.check("digest-"+name, ok && digests[name] == want, "digest %s, pinned %s", digests[name], want)
		}
	}
	r.diag["digests"] = digests
	r.diag["setup_s"] = setups

	// Throughput is the median over passes, as the daemon workloads take
	// the median over deployments.
	var wallMS, rawWallMS, perWall, perCPU, rawPerWall, scales []float64
	for p := 0; p < passes; p++ {
		var wall, rawWall, cpu time.Duration
		dh := 0
		for _, w := range runs[p*len(worlds) : (p+1)*len(worlds)] {
			wallMS = append(wallMS, ms(w.scaled(w.wall)))
			rawWallMS = append(rawWallMS, ms(w.wall))
			scales = append(scales, w.scale)
			wall += w.scaled(w.wall)
			rawWall += w.wall
			cpu += w.scaled(w.cpu)
			dh += w.deviceHours
		}
		r.attempted += int64(dh)
		perWall = append(perWall, float64(dh)/wall.Seconds())
		rawPerWall = append(rawPerWall, float64(dh)/rawWall.Seconds())
		perCPU = append(perCPU, float64(dh)/cpu.Seconds())
	}
	if !r.traced {
		r.set("setup_s", "s", median(setups))
		r.set("ops_per_s", "1/s", median(perWall))
		r.set("ops_per_cpu_s", "1/s", median(perCPU))
		s := append([]float64(nil), wallMS...)
		sort.Float64s(s)
		r.set("p50_ms", "ms", sim.Percentile(s, 0.5))
		r.set("p90_ms", "ms", sim.Percentile(s, 0.9))
		hwm, err := procHWM("self")
		if err != nil {
			return err
		}
		r.set("rss_mb", "MB", hwm)
		r.diag["latency"] = map[string]any{"what": "sim.Run wall time per world", "scaled": tail(wallMS), "unscaled": tail(rawWallMS)}
		r.diag["unscaled"] = map[string]any{"ops_per_s": median(rawPerWall)}
		r.diag["host_scale"] = scales
		return nil
	}
	return r.simLayers(worlds, runs)
}

// simLayers measures the fleet-sim layers from outside: the consumption
// model's share, the fleet's own step/report cost replayed from the
// recorded trace, the solar traces, and allocation and GC counts.
func (r *run) simLayers(worlds []sim.Scenario, runs []*worldRun) error {
	r.zeroLayers()
	traced := runs[len(worlds):]
	var flatWall, wall time.Duration
	var mallocs uint64
	var gcs uint32
	dh := 0
	probes := []float64{r.probe()}
	for i, sc := range worlds {
		flat := sc
		flat.FlatConsumption = true
		w, err := runWorld(flat, false)
		if err != nil {
			return err
		}
		probes = append(probes, r.probe())
		flatWall += w.wall
		wall += traced[i].wall
		mallocs += traced[i].mallocs
		gcs += traced[i].gcs
		dh += traced[i].deviceHours
	}
	// The traced pass and the flat runs are each scaled by their own probes.
	flatWall = time.Duration(float64(flatWall) * probeRefMS / hostTime(probes))
	wall = traced[0].scaled(wall)
	r.set("sim.consumption_share", "share", 1-flatWall.Seconds()/wall.Seconds())
	r.set("sim.allocs_per_device_hour", "count", float64(mallocs)/float64(dh))
	r.set("gc.cycles_per_kop", "count", float64(gcs)/(float64(dh)/1000))

	// The fleet's own step and report, replayed from each world's
	// recorded budgets and consumption with its resolved configs.
	var stepDur time.Duration
	var compileUS, solveNS []float64
	for _, w := range traced {
		res := w.res
		sc := res.Scenario
		cfgs := res.Configs
		fleet, err := reap.NewFleet(sc.Devices, reap.WithSolver(sc.Solver), reap.WithoutSolveCache(),
			reap.WithBattery(sc.BatteryJ, sc.CapacityJ),
			reap.WithDeviceOverride(func(i int) []reap.Option { return []reap.Option{reap.WithConfig(cfgs[i])} }))
		if err != nil {
			return err
		}
		budgets := make([]float64, sc.Devices)
		consumed := make([]float64, sc.Devices)
		ctx := context.Background()
		for step := 0; step < res.Trace.Steps; step++ {
			for dev := 0; dev < sc.Devices; dev++ {
				rec := res.Trace.At(step, dev)
				budgets[dev], consumed[dev] = rec.BudgetJ, rec.ConsumedJ
			}
			t0 := time.Now()
			if _, err := fleet.StepAll(ctx, budgets); err != nil {
				return fmt.Errorf("replaying %s step %d: %w", sc.Name, step, err)
			}
			if err := fleet.ReportAll(consumed); err != nil {
				return fmt.Errorf("replaying %s step %d: %w", sc.Name, step, err)
			}
			stepDur += time.Since(t0)
		}
		// Compile and solve costs on this world's configs and budgets.
		seen := map[uint64]*core.Plan{}
		for _, cfg := range cfgs {
			if seen[cfg.Fingerprint()] != nil {
				continue
			}
			t0 := time.Now()
			p, err := core.NewPlan(cfg)
			if err != nil {
				return err
			}
			compileUS = append(compileUS, us(time.Since(t0)))
			seen[cfg.Fingerprint()] = p
		}
		var a core.Allocation
		t0 := time.Now()
		for i := range res.Trace.Records {
			rec := &res.Trace.Records[i]
			if err := seen[cfgs[rec.Device].Fingerprint()].SolveInto(rec.SolveBudgetJ, &a); err != nil {
				return err
			}
		}
		solveNS = append(solveNS, float64(time.Since(t0).Nanoseconds())/float64(len(res.Trace.Records)))
		w.res = nil
	}
	r.set("reap.fleet_step_us", "us", us(stepDur)/float64(dh))
	r.set("core.compile_us", "us", median(compileUS))
	r.set("core.solve_ns", "ns", mean(solveNS))

	// Solar traces over each world's months and regions.
	t0 := time.Now()
	for _, sc := range worlds {
		regions := sc.Regions
		if len(regions) == 0 {
			regions = []sim.Region{{}}
		}
		months := max(1, sc.Months)
		for _, region := range regions {
			month, year := sc.Month, sc.Year
			for k := 0; k < months; k++ {
				if _, err := solar.MonthlyTraceSeeded(month, year, solar.DefaultCell(),
					solar.RegionWeatherSeed(month, year, region.Name)); err != nil {
					return err
				}
				if month++; month > 12 {
					month, year = 1, year+1
				}
			}
		}
	}
	r.set("solar.trace_ms", "ms", ms(time.Since(t0)))

	// Ledger: per device-hour, Fleet.Run against the fleet's own step
	// and report; the rest of the loop is the sim's models.
	var fleetRun, simWall time.Duration
	for _, w := range traced {
		fleetRun += w.scaled(w.elapsed)
		simWall += w.scaled(w.wall)
	}
	perDH := func(d time.Duration) float64 { return us(d) / float64(dh) }
	untraced := runs[:len(worlds)]
	var plainWall time.Duration
	for _, w := range untraced {
		plainWall += w.scaled(w.wall)
	}
	ledger := map[string]any{
		"workload": r.workload, "seed": r.seed, "unit": "µs per device-hour",
		"sim.run_us": perDH(simWall), "reap.fleet_run_us": perDH(fleetRun), "sim.setup_us": perDH(simWall - fleetRun),
		"reap.fleet_step_us": perDH(stepDur), "sim.models_us": perDH(fleetRun - stepDur),
		"sim.consumption_share": r.metrics["sim.consumption_share"].Value,
		"note":                  "reap.fleet_run is Summary.Elapsed; reap.fleet_step is the fleet's StepAll+ReportAll replayed from the trace; sim.models is the rest of Fleet.Run (solar, forecast, synth and energy models, observer)",
		"tracing_overhead": map[string]any{
			"ops_per_s_untraced": float64(dh) / plainWall.Seconds(), "ops_per_s_traced": float64(dh) / simWall.Seconds(),
		},
	}
	r.diag["ledger"] = ledger
	fmt.Fprintf(os.Stderr, "cost ledger, fleet-sim (µs per device-hour): sim.run %.2f = setup %.2f + fleet.run %.2f (fleet step %.2f + models %.2f)\n",
		perDH(simWall), perDH(simWall-fleetRun), perDH(fleetRun), perDH(stepDur), perDH(fleetRun-stepDur))
	return r.writeTrace(ledger)
}
