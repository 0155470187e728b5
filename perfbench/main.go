// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one workload through the library's public entry points, checks
// every output, and prints one JSON result line:
//
//	perfbench -workload hotspot3d -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics of the named
// workload (set-up time, throughput, median and p90 op latency). With
// -trace 1 the benchmark wraps each call into a layer in a span, runs every
// workload (the named one for the full -seconds, the others for a shorter
// slice), writes the spans under -out and reports the per-layer metrics.
// BENCHMARK.json at the repository root lists the workloads and metrics and
// maps each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"stencilabft/internal/serve"
)

// workerFlag re-execs this binary as a stencilserve pool worker, the same
// shape as cmd/stencilserve -worker.
const workerFlag = "-serve-worker"

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named values; each name is set once.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// runEnv is what a workload receives: its seed, how long to measure, where
// to write artifacts, and the tracer (nil on an untraced run).
type runEnv struct {
	seed    int64
	measure time.Duration
	out     string
	tr      *tracer
}

// outcome is what a workload reports back.
type outcome struct {
	setup     []float64 // seconds, one per repeated set-up
	lat       []float64 // ms, one per timed op
	wall      float64   // seconds spent in the timed phase
	attempted int
	failed    int
	notes     []string  // correctness failures, printed to stderr
	layers    metricSet // per-layer values, filled on traced runs
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(env *runEnv) (*outcome, error)
}

var workloads = []workload{
	{"hotspot3d", runHotspot},
	{"cluster-tcp", runClusterTCP},
	{"serve-grid", func(env *runEnv) (*outcome, error) { return runServe(env, serveGrid) }},
	{"serve-small", func(env *runEnv) (*outcome, error) { return runServe(env, serveSmall) }},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == workerFlag {
		if err := serve.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run: hotspot3d | cluster-tcp | serve-grid | serve-small")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	var first *workload
	for i := range workloads {
		if workloads[i].name == name {
			first = &workloads[i]
		}
	}
	if first == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	stampEnvironment()
	measure := time.Duration(seconds * float64(time.Second))

	var probes []float64
	probe := func() { probes = append(probes, hostProbe()) }
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{Metrics: metricSet{}}

	order := []*workload{first}
	if traced {
		for i := range workloads {
			if &workloads[i] != first {
				order = append(order, &workloads[i])
			}
		}
	}
	for i, w := range order {
		env := &runEnv{seed: seed, measure: measure, out: out}
		if traced {
			env.tr = newTracer()
			if i > 0 {
				// The other workloads run a shorter slice so one traced
				// run reports every layer within its time limit.
				env.measure = max(measure/4, 3*time.Second)
			}
		}
		probe()
		before := runtime.NumGoroutine()
		o, err := w.run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		leaked := leakedGoroutines(before)
		probe()
		for _, n := range o.notes {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", w.name, n)
		}
		summarize(w.name, o, leaked)
		res.Attempted += o.attempted
		res.Failed += o.failed
		if !traced {
			endToEnd(res.Metrics, o)
			continue
		}
		for k, v := range o.layers {
			res.Metrics[k] = v
		}
		res.Metrics.set(w.name+".leaked_goroutines", "count", float64(leaked))
		if err := env.tr.write(filepath.Join(out, w.name+".spans.jsonl")); err != nil {
			return err
		}
	}
	if traced {
		res.Metrics.set("host.probe_ms", "ms", median(probes))
	}
	fmt.Printf("host probe: %s ms (before/after each workload)\n", joinFloats(probes))
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the four user-visible metrics from an untraced run.
func endToEnd(m metricSet, o *outcome) {
	m.set("setup_s", "s", median(o.setup))
	m.set("ops_per_s", "1/s", float64(len(o.lat))/o.wall)
	m.set("op_ms_p50", "ms", quantile(o.lat, 0.5))
	m.set("op_ms_p90", "ms", quantile(o.lat, 0.9))
}

// summarize prints the human-readable line for one workload: sample counts
// beside every figure, so a percentile's support is visible.
func summarize(name string, o *outcome, leaked int) {
	fmt.Printf("%s: %d ops in %.3f s (%.2f/s), op ms p50 %.4g p90 %.4g (n=%d), setup s median %.4g (n=%d), failed %d/%d, leaked goroutines %d\n",
		name, len(o.lat), o.wall, float64(len(o.lat))/o.wall, quantile(o.lat, 0.5), quantile(o.lat, 0.9),
		len(o.lat), median(o.setup), len(o.setup), o.failed, o.attempted, leaked)
}

// stampEnvironment prints what a reader needs to compare runs across hosts.
func stampEnvironment() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}

// probeSink keeps the probe loop's result live.
var probeSink uint64

// hostProbe times a fixed pure-Go loop that touches no repository code, as
// the median of five batches: a change in it between runs is the host's
// speed moving, not the program's.
func hostProbe() float64 {
	var ms []float64
	for range 5 {
		start := time.Now()
		var a [256]uint64
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a[x&255] += x
		}
		probeSink += a[7]
		ms = append(ms, msSince(start))
	}
	return median(ms)
}

// leakedGoroutines reports how many goroutines outlive a workload's
// teardown, giving exiting goroutines a moment to finish.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// overheadPct is how much slower traced ops ran than untraced ones, from
// their medians. Every workload's traced run times ops on both sides.
func overheadPct(on, off []float64) float64 { return 100 * (median(on)/median(off) - 1) }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// quantile is the linear-interpolation quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
