// Command rdlbench regenerates the paper's evaluation artifacts: Table I
// (ours vs Lin-ext on dense1..dense5), the Figure 2 layer-count
// experiment, the Figure 5 weighted-MPSC experiment, the Figure 7 LP
// wirelength experiment, the LP convergence measurement, and ablations.
//
// Usage:
//
//	rdlbench -table1            # full Table I (dense1..dense5; minutes)
//	rdlbench -table1 -quick     # dense1..dense3 only
//	rdlbench -fig2 -fig5 -fig7
//	rdlbench -ablation -lpiters
//	rdlbench -all
//	rdlbench -all -quick -json results.json   # machine-readable report
//	rdlbench -table1 -trace t.jsonl -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"rdlroute/internal/bench"
	"rdlroute/internal/metrics"
	"rdlroute/internal/obs"
)

func main() {
	os.Exit(run())
}

// parseWorkerCounts parses the -scaling-workers list.
func parseWorkerCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scaling-workers entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scaling-workers is empty")
	}
	return out, nil
}

// run keeps cleanup (profile stop, trace flush, report write) in defers
// and returns the process exit code, so no exit path skips them.
func run() int {
	var (
		table1   = flag.Bool("table1", false, "regenerate Table I (ours vs Lin-ext)")
		fig2     = flag.Bool("fig2", false, "regenerate the Figure 2 layer-count experiment")
		fig5     = flag.Bool("fig5", false, "regenerate the Figure 5 weighted-MPSC experiment")
		fig7     = flag.Bool("fig7", false, "regenerate the Figure 7 LP wirelength experiment")
		ablation = flag.Bool("ablation", false, "run the design-choice ablations")
		lpiters  = flag.Bool("lpiters", false, "measure LP repair-loop iterations (III-E-4)")
		gsize    = flag.Bool("graphsize", false, "compare tile-graph vs uniform-grid node counts")
		all      = flag.Bool("all", false, "run everything (except -scaling, which is its own sweep)")
		scaling  = flag.Bool("scaling", false, "run the worker-scaling sweep: each circuit at every -scaling-workers count, with a determinism check")
		scalingW = flag.String("scaling-workers", "1,2,4,8", "comma-separated worker counts for -scaling (first is the speedup baseline)")
		quick    = flag.Bool("quick", false, "restrict circuit sweeps to dense1..dense3")
		workers  = flag.Int("workers", 0, "worker-pool bound inside each run of our flow (0 = GOMAXPROCS, 1 = sequential); results are identical at every value")
		timeout  = flag.Duration("timeout", 0, `per-circuit routing deadline for the Table-I sweep; timed-out circuits are reported with status "timeout" (0 = none)`)
		jsonOut  = flag.String("json", "", "also write every result as a JSON report to this file (see EXPERIMENTS.md)")
		metOut   = flag.String("metrics", "", `write the batch's production metrics as a Prometheus text exposition to this file ("-" = stdout)`)
		trace    = flag.String("trace", "", "write a JSONL trace of all routing runs to this file")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile (stage-labelled) to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	)
	flag.Parse()
	if *all {
		*table1, *fig2, *fig5, *fig7, *ablation, *lpiters, *gsize = true, true, true, true, true, true, true
	}
	if !*table1 && !*fig2 && !*fig5 && !*fig7 && !*ablation && !*lpiters && !*gsize && !*scaling {
		flag.Usage()
		return 2
	}
	names := []string{"dense1", "dense2", "dense3", "dense4", "dense5"}
	if *quick {
		names = names[:3]
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "rdlbench:", err)
		return 1
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	var sinks []obs.Tracer
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			return fail(err)
		}
		jl := obs.NewJSONL(tf)
		defer func() {
			jl.Close()
			tf.Close()
		}()
		sinks = append(sinks, jl)
	}
	var reg *metrics.Registry
	if *metOut != "" {
		reg = metrics.NewRegistry()
		sinks = append(sinks, metrics.NewBridge(reg))
	}
	if *cpuprof != "" && len(sinks) == 0 {
		// The stage spans only apply their pprof labels through an enabled
		// tracer; give the profile one even without -trace.
		sinks = append(sinks, obs.NewCollector())
	}
	bench.Tracer = obs.Multi(sinks...)
	bench.Timeout = *timeout
	bench.Workers = *workers

	rep := &bench.Report{Circuits: names}
	errCount := 0
	die := func(err error) bool {
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdlbench:", err)
			errCount++
			return true
		}
		return false
	}

	if *table1 {
		fmt.Println("== Table I: pre-assignment routing, ours vs Lin-ext ==")
		rows, err := bench.RunTable1(names)
		if die(err) {
			return 1
		}
		fmt.Print(bench.FormatTable1(rows))
		for _, r := range rows {
			if r.OursDRC > 0 || r.LinDRC > 0 {
				fmt.Printf("WARNING %s: DRC violations ours=%d lin=%d\n", r.Stats.Name, r.OursDRC, r.LinDRC)
			}
			rep.Table1 = append(rep.Table1, r.JSON())
		}
		fmt.Println()
	}
	if *fig2 {
		fmt.Println("== Figure 2: flexible vias reduce the required RDL count ==")
		res, err := bench.RunFig2()
		if die(err) {
			return 1
		}
		rep.Fig2 = &res
		fmt.Printf("entangled 3-net pattern: ours completes with %d RDLs; Lin-ext needs %d RDLs\n",
			res.OursMinLayers, res.LinMinLayers)
		fmt.Println("(paper: 2 vs 3)")
		fmt.Println()
	}
	if *fig5 {
		fmt.Println("== Figure 5: weighted vs unweighted MPSC layer assignment ==")
		res := bench.RunFig5()
		rep.Fig5 = &res
		fmt.Printf("unweighted MPSC: assigns %d nets, %d survive detailed routing\n",
			res.UnweightedAssigned, res.UnweightedSurvive)
		fmt.Printf("weighted MPSC (Eq.2): assigns %d nets, %d survive detailed routing\n",
			res.WeightedAssigned, res.WeightedSurvive)
		fmt.Println("(paper: the unweighted assignment loses 2 of 3 nets in the congested channel)")
		fmt.Println()
	}
	var metricRows []bench.MetricsRow
	needMetrics := *fig7 || *lpiters || *gsize
	if needMetrics {
		var err error
		metricRows, err = bench.RunMetrics(names)
		if die(err) {
			return 1
		}
	}
	if *fig7 {
		fmt.Println("== Figure 7: LP-based layout optimization ==")
		fmt.Printf("%-8s %12s %12s %10s %6s\n", "circuit", "wl before", "wl after", "reduction", "iters")
		for _, m := range metricRows {
			r := m.Fig7
			fmt.Printf("%-8s %12.0f %12.0f %9.2f%% %6d\n", r.Name, r.Before, r.After, r.Reduction, r.Iterations)
			rep.Fig7 = append(rep.Fig7, r)
		}
		fmt.Println()
	}
	if *ablation {
		fmt.Println("== Ablations (Section IV analysis) ==")
		abNames := names
		if len(abNames) > 2 && !*quick {
			abNames = names[:2]
		}
		rows, err := bench.RunAblations(abNames)
		if die(err) {
			return 1
		}
		rep.Ablations = rows
		fmt.Printf("%-8s %-18s %12s %12s %6s %6s %8s\n",
			"circuit", "config", "routability", "wirelength", "conc", "drc", "time")
		for _, r := range rows {
			fmt.Printf("%-8s %-18s %11.1f%% %12.0f %6d %6d %7.2fs\n",
				r.Name, r.Config, r.Routability, r.Wirelength, r.Concurrent, r.DRC, r.Seconds)
		}
		fmt.Println()
	}
	if *lpiters {
		fmt.Println("== LP convergence (Section III-E-4: ≤ ~50 iterations) ==")
		for _, m := range metricRows {
			r := m.LPIter
			fmt.Printf("%-8s %d iterations over %d components\n", r.Name, r.Iterations, r.Components)
			rep.LPIters = append(rep.LPIters, r)
		}
		fmt.Println()
	}
	if *gsize {
		fmt.Println("== Octagonal tile graph vs uniform grid (graph size) ==")
		fmt.Printf("%-8s %12s %12s %8s\n", "circuit", "tile nodes", "grid nodes", "ratio")
		for _, m := range metricRows {
			r := m.Graph
			fmt.Printf("%-8s %12d %12d %8.3f\n", r.Name, r.TileNodes, r.GridNodes, r.Ratio)
			rep.GraphSize = append(rep.GraphSize, r)
		}
		fmt.Println()
		fmt.Println("== Wirelength quality (vs octilinear lower bound) ==")
		fmt.Printf("%-8s %12s %12s %8s %8s %8s\n", "circuit", "lower bound", "actual", "mean", "p95", "max")
		for _, m := range metricRows {
			r := m.Quality
			fmt.Printf("%-8s %12.0f %12.0f %8.3f %8.3f %8.3f\n",
				r.Name, r.LowerBound, r.Actual, r.MeanDetour, r.P95, r.MaxDetour)
			rep.Quality = append(rep.Quality, r)
		}
	}

	if *scaling {
		counts, err := parseWorkerCounts(*scalingW)
		if die(err) {
			return 1
		}
		fmt.Println("== Worker scaling (identical results, wall time per worker count) ==")
		rows, err := bench.RunScaling(names, counts)
		if die(err) {
			return 1
		}
		rep.Scaling = rows
		fmt.Print(bench.FormatScaling(rows))
		for _, r := range rows {
			if !r.Deterministic {
				fmt.Printf("WARNING %s workers=%d: result diverges from the baseline run\n", r.Name, r.Workers)
				errCount++
			}
		}
		fmt.Println()
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteJSON(f, rep); err != nil {
			f.Close()
			return fail(err)
		}
		f.Close()
		fmt.Printf("json report: %s\n", *jsonOut)
	}
	if reg != nil {
		w := os.Stdout
		if *metOut != "-" {
			f, err := os.Create(*metOut)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := reg.WriteText(w); err != nil {
			return fail(err)
		}
		if *metOut != "-" {
			fmt.Printf("metrics exposition: %s\n", *metOut)
		}
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		f.Close()
	}
	if errCount > 0 {
		return 1
	}
	return 0
}
