// Command perfbench is the repository benchmark. It drives the routing
// system from outside, through the public functions of each layer —
// design.Generate, router.RouteFingerprint, drc.Check, codec, lpopt and
// serve.Server over loopback HTTP — checks every result, and prints one
// JSON result line last.
//
// run.sh builds it from the checkout and runs it; from the repository root:
//
//	bash perfbench/run.sh --workload dense4 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. README.md
// describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rdlroute/internal/router"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line, the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: its settings, the operations it attempted and saw
// fail, and the metrics in the order it measured them.
type bench struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool

	attempted, failed int
	drcViolations     int
	names             []string
	metrics           map[string]metric
}

// set records a metric. A value that is not finite, such as a ratio over
// an empty base, is reported as 0 so the result line stays valid JSON.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := b.metrics[name]; !ok {
		b.names = append(b.names, name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and prints why it failed.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Printf("FAIL "+format+"\n", args...)
}

// paperOptions are the options every workload routes with: the paper's
// flow (router.DefaultOptions) on a worker pool of one worker per core.
// Speculation, the ordering portfolio, rip-up and the batch search memo
// stay off, so that removing them reads as no change.
func paperOptions() router.Options {
	opts := router.DefaultOptions()
	opts.Workers = runtime.NumCPU()
	return opts
}

var workloads = map[string]func(*bench) error{
	"dense4":    func(b *bench) error { return runDense(b, "dense4") },
	"dense1-3":  func(b *bench) error { return runDense(b, "dense1", "dense2", "dense3") },
	"serve-mix": runServeMix,
}

func main() {
	b := &bench{metrics: map[string]metric{}}
	var seconds float64
	var trace int
	flag.StringVar(&b.workload, "workload", "", "workload: dense4, dense1-3 or serve-mix")
	flag.Int64Var(&b.seed, "seed", 0, "workload seed; it drives only serve-mix, the dense workloads route the Table I circuits on every seed")
	flag.Float64Var(&seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0 measures the end-to-end metrics untraced; 1 runs the traced pass for the per-layer metrics")
	flag.Parse()
	run, ok := workloads[b.workload]
	if !ok || seconds <= 0 || trace < 0 || trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload dense4|dense1-3|serve-mix [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	b.duration = time.Duration(seconds * float64(time.Second))
	b.traced = trace == 1

	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	for _, n := range b.names {
		fmt.Printf("%-32s %14.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	fmt.Printf("%-32s %14.6g ratio (%d of %d operations failed)\n",
		"failed_ratio", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	line, err := json.Marshal(report{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd is what an untraced run measured.
type endToEnd struct {
	routeS     float64 // median route wall time of one iteration
	routedNets int     // routed nets summed over the reference designs
	wirelength float64 // Σ routed wirelength of those nets
	lowerBound float64 // Σ octilinear pad-to-pad lower bound of those nets
	jobs       []time.Duration
	jobWall    time.Duration // wall time the jobs took
	setupS     float64
	peakHeap   uint64 // bytes
}

// reportEndToEnd sets the end-to-end metrics. job_p95_ms is the 95th
// percentile only when at least ten jobs lie beyond it; with fewer jobs, as
// on the dense workloads, it is the slowest job. The failed share is
// reported as ok_ratio, its complement, because a metric must never read
// 0; failed_ratio itself is printed with the counts it comes from.
func (b *bench) reportEndToEnd(e endToEnd) {
	ms := millis(e.jobs)
	n := len(ms)
	tail, tailName := percentile(ms, 0.95), "p95"
	if beyond := n - int(math.Ceil(0.95*float64(n))); beyond < 10 {
		tail, tailName = percentile(ms, 1), "max"
	}
	fmt.Printf("jobs: %d completed, job_p95_ms is their %s\n", n, tailName)
	b.set("route_s", "s", e.routeS)
	b.set("routed_nets", "count", float64(e.routedNets))
	b.set("detour_ratio", "ratio", ratio(e.wirelength, e.lowerBound))
	b.set("job_p50_ms", "ms", percentile(ms, 0.50))
	b.set("job_p95_ms", "ms", tail)
	b.set("jobs_per_s", "jobs/s", ratio(float64(n), e.jobWall.Seconds()))
	b.set("ok_ratio", "ratio", 1-ratio(float64(b.failed), float64(b.attempted)))
	b.set("setup_s", "s", e.setupS)
	b.set("peak_heap_mb", "MiB", float64(e.peakHeap)/(1<<20))
}

// writeTrace saves the traced run's spans, events and counters under
// .bench_build/traces, which run.sh's build directory holds.
func (b *bench) writeTrace(tr *memTracer) error {
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace written to %s\n", path)
	return nil
}
