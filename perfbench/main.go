// Command perfbench is the repository benchmark. It runs one workload
// per invocation and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the run also writes its spans and the cost
// ledger under --out.
//
// Workloads (see BENCHMARK.json for the one-line rationale of each):
//
//	solve-hot          POST /v1/batch-solve, 64 default-config items
//	solve-distinct     the same endpoint, 16,384 per-item configs cycled
//	ingest-replicated  POST /v1/report, 64 sorted reports, journaled
//	                   primary plus one follower
//	fleet-sim          sim.Run over six corpus worlds, in process
//
// The daemon workloads drive a real reapd process (built by run.sh)
// over loopback with a closed loop of two keep-alive connections, so
// CPU and memory figures belong to the daemon, not the load generator.
// Each run does a fixed amount of work sized by --seconds; the inputs
// are a pure function of --seed. Every time an end-to-end metric is made
// of is scaled to a reference host by a probe timed between the measured
// segments (see probe); the unscaled figures are in the diagnostics line
// printed before the result.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"repro/sim"
)

// sink keeps timed computations whose results are otherwise unused
// from being optimized away.
var sink uint64

// defaultSeed keeps fleet-sim's worlds on their own corpus seeds, which
// is what the pinned trace digests were taken at.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and everything it accumulates:
// metrics, ungated diagnostics, output-check tallies and the processes
// it must stop before exiting.
type run struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	reapd    string
	outDir   string

	metrics   map[string]metric
	diag      map[string]any
	attempted int64
	failed    int64
	checks    []checkResult
	probes    []float64   // host probe times, ms
	probeCPUs [][]float64 // each probe's time per CPU, ms
	cpus      []int       // the CPUs the probe runs on
	mask      cpuMask     // the process's own affinity

	procs *procSet
	tr    *tracer
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records one output check as one attempted operation, failed
// when ok is false.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	c := checkResult{Name: name, OK: ok}
	if !ok {
		r.failed++
		c.Detail = fmt.Sprintf(format, args...)
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", name, c.Detail)
	}
	r.checks = append(r.checks, c)
}

// probeRefMS is the probe's time on the reference host that every
// wall-clock and CPU-time end-to-end figure is scaled to.
const probeRefMS = 3.0

type probeItem struct {
	Name    string    `json:"name"`
	BudgetJ float64   `json:"budget_j"`
	Acc     []float64 `json:"acc"`
	ID      int       `json:"id"`
}

// probeDoc is the fixed document the probe decodes and encodes.
var probeDoc = func() []byte {
	rng := rand.New(rand.NewSource(1))
	items := make([]probeItem, 64)
	for i := range items {
		items[i] = probeItem{Name: "dp" + strconv.Itoa(i), BudgetJ: 11 * rng.Float64(),
			Acc: []float64{rng.Float64(), rng.Float64(), rng.Float64()}, ID: i}
	}
	raw, err := json.Marshal(items)
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return raw
}()

// probe times a fixed kernel that uses only the standard library: JSON
// decode and encode of a fixed document, map updates and float math, the
// kinds of work the daemon and the simulator do. It times the kernel
// pinned to each CPU the process may use, takes the median of three runs
// on each, and records and returns the harmonic mean over the CPUs in
// ms. It starts after a full collection and runs with the collector off,
// so neither the size of the benchmark process's own heap nor a
// collection the workload left running can change its time.
//
// A shared host's speed for identical work can drift by 30-60% within
// minutes, and CPU time per operation moves with it, so it is not only
// hypervisor steal: a vCPU can switch between two speeds a factor of
// two apart within a second, and the two vCPUs need not switch
// together. A workload that keeps both busy runs at their combined
// speed, which the harmonic mean over CPUs tracks. The probes taken
// between the segments of each measured phase sample the host's speed
// over the phase, and hostTime turns them into the factor the phase's
// times are scaled by.
func (r *run) probe() float64 {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var per []float64
	inv := 0.0
	for _, cpu := range r.cpus {
		t := probeOn(cpu, r.mask)
		per = append(per, t)
		inv += 1 / t
	}
	d := float64(len(per)) / inv
	r.probes = append(r.probes, d)
	r.probeCPUs = append(r.probeCPUs, per)
	return d
}

// probeOn runs the kernel three times on a thread pinned to cpu (or
// unpinned, for cpu < 0) and returns the median time in ms.
func probeOn(cpu int, all cpuMask) float64 {
	out := make(chan float64, 1)
	go func() {
		if cpu >= 0 {
			runtime.LockOSThread()
			var pin cpuMask
			pin[cpu/64] |= 1 << (cpu % 64)
			_ = pin.apply() // an unpinned run still measures the host
			// The thread returns to the scheduler only with the process's
			// mask back; otherwise it exits with this goroutine.
			defer func() {
				if all.apply() == nil {
					runtime.UnlockOSThread()
				}
			}()
		}
		var ts [3]float64
		for i := range ts {
			start := time.Now()
			probeKernel()
			ts[i] = ms(time.Since(start))
		}
		out <- median(ts[:])
	}()
	return <-out
}

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

func (m *cpuMask) apply() error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// allowedCPUs returns the process's affinity mask and lists the CPUs in
// it, or [-1] (probe unpinned) when the mask cannot be read.
func allowedCPUs() (cpuMask, []int) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	var cpus []int
	for i := 0; errno == 0 && i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return m, []int{-1}
	}
	return m, cpus
}

// hostTime is the probe time of a host that runs at the time-averaged
// speed the probes sampled: their harmonic mean. Every time measured
// while they were taken is scaled by probeRefMS over it. Scaling latency
// percentiles by the same percentile of the probes instead tracked the
// host worse: across ten solve-distinct runs on a 2-vCPU VM whose probe
// times spread by 29%, the p90 spread by 12% that way and by 3.5% this
// way.
func hostTime(probes []float64) float64 {
	inv := 0.0
	for _, p := range probes {
		inv += 1 / p
	}
	return float64(len(probes)) / inv
}

func probeKernel() {
	seen := map[string]float64{}
	var buf bytes.Buffer
	for k := 0; k < 12; k++ {
		var items []probeItem
		if err := json.Unmarshal(probeDoc, &items); err != nil {
			panic(err) // probeDoc is a constant document
		}
		for i := range items {
			items[i].BudgetJ = math.Sqrt(items[i].BudgetJ) * math.Log1p(items[i].Acc[k%3])
			seen[items[i].Name] += items[i].BudgetJ
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(items); err != nil {
			panic(err)
		}
		sink += uint64(buf.Len())
	}
	sink += uint64(len(seen))
}

func main() {
	workload := flag.String("workload", "", "solve-hot | solve-distinct | ingest-replicated | fleet-sim")
	seed := flag.Int64("seed", defaultSeed, "workload seed: the inputs are a pure function of it")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; sizes the fixed amount of work")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the cost ledger")
	reapdBin := flag.String("reapd", "", "reapd binary the daemon workloads launch")
	outDir := flag.String("out", ".bench_build/out", "directory for journals, spans and ledgers")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds ≥ 1 and --trace 0|1")
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		reapd: *reapdBin, outDir: *outDir,
		metrics: map[string]metric{}, diag: map[string]any{},
		procs: &procSet{},
	}
	r.mask, r.cpus = allowedCPUs()
	r.tr = newTracer()

	// A caller that times the run out must not orphan its daemons.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		r.procs.stopAll()
		os.Exit(2)
	}()

	err := r.dispatch()
	r.procs.stopAll()
	if err != nil {
		fatalf("%s: %v", r.workload, err)
	}

	r.diag["host.probe_ms"] = map[string]any{"median": median(r.probes), "samples": r.probes, "per_cpu": r.probeCPUs, "cpus": r.cpus}
	r.diag["checks"] = r.checks
	if r.traced {
		r.set("host.probe_ms", "ms", median(r.probes))
	}
	emit(map[string]any{"workload": r.workload, "seed": r.seed, "trace": r.traced, "diagnostics": r.diag})
	emit(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
}

func (r *run) dispatch() error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	switch r.workload {
	case "solve-hot", "solve-distinct":
		return r.runSolve()
	case "ingest-replicated":
		return r.runIngest()
	case "fleet-sim":
		return r.runFleetSim()
	default:
		return fmt.Errorf("unknown workload (want solve-hot, solve-distinct, ingest-replicated or fleet-sim)")
	}
}

func emit(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding output: %v", err)
	}
	fmt.Println(string(raw))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sim.Percentile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail reports a latency sample's nearest-rank percentiles with the
// sample count, for the diagnostics block.
func tail(latMS []float64) map[string]any {
	s := append([]float64(nil), latMS...)
	sort.Float64s(s)
	return map[string]any{
		"samples": len(s),
		"p50_ms":  sim.Percentile(s, 0.50), "p90_ms": sim.Percentile(s, 0.90),
		"p99_ms": sim.Percentile(s, 0.99), "p999_ms": sim.Percentile(s, 0.999),
		"beyond_p99": len(s) - int(0.99*float64(len(s))+0.5), "beyond_p999": len(s) - int(0.999*float64(len(s))+0.5),
	}
}
