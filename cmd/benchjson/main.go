// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document on stdout — the format of the committed solver
// benchmark trajectory (BENCH_solve.json) and of the artifact the CI
// bench-smoke job uploads on every run.
//
// Usage:
//
//	go test -run '^$' -bench 'FleetStepAll|SolvePlan' -benchmem . | benchjson > BENCH_solve.json
//
// Each benchmark line becomes one entry keyed by its name (with the
// -cpu suffix stripped, so trajectories diff cleanly across machines
// with different core counts):
//
//	{"benchmarks": {"BenchmarkFleetStepAll/default/10000":
//	    {"ns_per_op": 1016034, "allocs_per_op": 10004, "bytes_per_op": 1055616}, ...}}
//
// The header lines (goos, goarch, pkg, cpu) pass through to the
// "context" field, followed by a "cpus: N" line holding the stripped
// GOMAXPROCS suffix (no suffix means 1), so a trajectory records which
// machine and core count produced it — allocation counts of pooled
// benchmarks depend on the latter. Input mixing several -cpu values is
// rejected, since their entries would collide.
//
// With -baseline FILE, benchjson also gates the run against a committed
// document such as BENCH_solve.json, after printing its own. A row
// present in both that allocates more per op fails the run (exit
// status 1): at a fixed -cpu, allocs/op is a property of the code. A
// row that got slower or allocates more bytes per op only warns, since
// ns/op follows the host and B/op the GC. Both documents must come
// from the same core count.
//
//	go test -run '^$' -cpu 1 -benchmem -bench . . | benchjson -baseline BENCH_solve.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measurements. Allocation counters are
// pointers so benchmarks run without -benchmem encode as null rather
// than a misleading zero.
type result struct {
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

type document struct {
	Context    []string          `json:"context,omitempty"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkFleetStepAll/default/10000-4  100  42 ns/op  16 B/op  2 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	baseline := flag.String("baseline", "", "committed document to gate against (more allocs/op fails; slower ns/op or more B/op warns)")
	flag.Parse()
	doc := document{Benchmarks: map[string]result{}}
	cpus := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			if strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:") ||
				strings.HasPrefix(line, "pkg:") || strings.HasPrefix(line, "cpu:") {
				doc.Context = append(doc.Context, line)
			}
			continue
		}
		n := m[2]
		if n == "" {
			n = "1"
		}
		if cpus != "" && cpus != n {
			log.Fatalf("benchmarks ran at -cpu %s and %s; run one -cpu value per document", cpus, n)
		}
		cpus = n
		var r result
		r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		if m[5] != "" {
			v, _ := strconv.ParseFloat(m[5], 64)
			r.BytesPerOp = &v
		}
		if m[6] != "" {
			v, _ := strconv.ParseFloat(m[6], 64)
			r.AllocsPerOp = &v
		}
		doc.Benchmarks[m[1]] = r
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}
	doc.Context = append(doc.Context, "cpus: "+cpus)

	// encoding/json sorts map keys, so the document is stable; indent
	// for reviewable diffs and echo the entry count to stderr.
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	names := make([]string, 0, len(doc.Benchmarks))
	for n := range doc.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks (%s ... %s)\n", len(names), names[0], names[len(names)-1])

	if *baseline != "" {
		failed, err := compare(doc, names, *baseline)
		if err != nil {
			log.Fatal(err)
		}
		if failed > 0 {
			log.Fatalf("%d benchmark(s) allocate more per op than %s", failed, *baseline)
		}
	}
}

// compare checks the rows of doc, in names order, against the document
// at path. It warns on stderr about each row that got slower or
// allocates more bytes, reports each that allocates more often, and
// returns the number of the latter.
func compare(doc document, names []string, path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var base document
	if err := json.Unmarshal(raw, &base); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if got, want := cpus(doc), cpus(base); got != want {
		return 0, fmt.Errorf("this run has %q and %s has %q: allocation counts compare only at one core count", got, path, want)
	}
	compared, failed := 0, 0
	for _, name := range names {
		cur := doc.Benchmarks[name]
		old, ok := base.Benchmarks[name]
		if !ok {
			continue
		}
		compared++
		if cur.AllocsPerOp != nil && old.AllocsPerOp != nil && *cur.AllocsPerOp > *old.AllocsPerOp {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: %.0f allocs/op, baseline %.0f\n", name, *cur.AllocsPerOp, *old.AllocsPerOp)
			failed++
		}
		if cur.NsPerOp > old.NsPerOp {
			fmt.Fprintf(os.Stderr, "benchjson: warn %s: %.0f ns/op, baseline %.0f (+%.0f%%)\n",
				name, cur.NsPerOp, old.NsPerOp, 100*(cur.NsPerOp/old.NsPerOp-1))
		}
		if cur.BytesPerOp != nil && old.BytesPerOp != nil && *cur.BytesPerOp > *old.BytesPerOp {
			fmt.Fprintf(os.Stderr, "benchjson: warn %s: %.0f B/op, baseline %.0f\n", name, *cur.BytesPerOp, *old.BytesPerOp)
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d rows compared with %s, %d allocate more\n", compared, path, failed)
	return failed, nil
}

// cpus returns the "cpus: N" line of a document's context.
func cpus(doc document) string {
	for _, line := range doc.Context {
		if strings.HasPrefix(line, "cpus: ") {
			return line
		}
	}
	return ""
}
