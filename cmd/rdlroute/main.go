// Command rdlroute routes an InFO package design with the paper's
// five-stage via-based flow (or the Lin-ext baseline) and reports
// routability, wirelength, via count and runtime.
//
// Usage:
//
//	rdlroute -bench dense1                # generate + route a Table-I circuit
//	rdlroute -design d.json -check        # route an rdl-design/v1 file and run DRC
//	rdlroute -bench dense2 -flow linext   # run the baseline instead
//	rdlroute -bench dense1 -no-lp         # ablation: disable stage 5
//	rdlroute -bench dense1 -trace t.jsonl -stats   # observability
//	rdlroute -bench dense1 -metrics -              # Prometheus exposition on stdout
//	rdlroute -bench dense1 -cpuprofile cpu.pprof   # stage-labelled profile
//	rdlroute -design d.json -o result.json         # save an rdl-result/v1 document (either flow)
//	rdlroute -bench dense1 -delta eco.json         # ECO: apply a delta, route the edited design
//
// Design files are rdl-design/v1 documents (write one with rdlgen);
// check a saved result against its design with rdlverify.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rdlroute"
)

func main() {
	os.Exit(run())
}

// run keeps all cleanup in defers (profile stop, trace flush) and returns
// the process exit code, so no exit path skips them.
func run() int {
	var (
		designIn = flag.String("design", "", "input design file (rdl-design/v1 JSON)")
		bench    = flag.String("bench", "", "generate a named benchmark (dense1..dense5) instead of reading a file")
		flow     = flag.String("flow", "ours", `routing flow: "ours" or "linext"`)
		check    = flag.Bool("check", false, "run the design-rule checker on the result")
		noLP     = flag.Bool("no-lp", false, "disable LP-based layout optimization")
		noW      = flag.Bool("no-weights", false, "disable Eq.(2) chord weights (unweighted MPSC)")
		noVias   = flag.Bool("no-via-insertion", false, "disable stage-3 via insertion")
		cells    = flag.Int("cells", 30, "global cells per axis")
		svg      = flag.String("svg", "", "write the routed layout as SVG to this file")
		layer    = flag.Int("svg-layer", -1, "restrict the SVG to one wire layer (-1 = all)")
		oJSON    = flag.String("o", "", "write the routing result (rdl-result/v1 JSON) to this file")
		heat     = flag.Bool("congest", false, "print per-layer congestion heatmaps")
		ripup    = flag.Int("ripup", 0, "rip-up-and-reroute rounds (extension beyond the paper; 0 = off)")
		workers  = flag.Int("workers", 0, "worker-pool bound for the parallel stages of -flow ours (0 = GOMAXPROCS, 1 = sequential); the routed result is identical at every value")
		deltaIn  = flag.String("delta", "", `ECO delta file (rdl-design-delta/v1 JSON): apply the delta to the loaded design and route the edited design (flow "ours" only)`)
		hashOnly = flag.Bool("hash", false, "print the design's content hash (sha256 of the canonical rdl-design/v1 bytes, the delta \"base\" field) and exit")

		trace     = flag.String("trace", "", "write a JSONL trace (stage spans, per-net events) to this file")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile (stage-labelled) to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile (taken after routing) to this file")
		stats     = flag.Bool("stats", false, "print the aggregated metrics snapshot after routing")
		statsJSON = flag.String("stats-json", "", "write the aggregated metrics snapshot as JSON to this file")
		metOut    = flag.String("metrics", "", `write the run's production metrics as a Prometheus text exposition to this file ("-" = stdout)`)
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "rdlroute:", err)
		return 1
	}

	var d *rdlroute.Design
	var err error
	switch {
	case *bench != "":
		d, err = rdlroute.GenerateBenchmark(*bench)
	case *designIn != "":
		var f *os.File
		if f, err = os.Open(*designIn); err == nil {
			d, err = rdlroute.DecodeDesignJSON(f)
			f.Close()
		}
	default:
		fmt.Fprintln(os.Stderr, "rdlroute: need -design or -bench")
		return 2
	}
	if err != nil {
		return fail(err)
	}

	if *hashOnly {
		h, err := rdlroute.DesignContentHash(d)
		if err != nil {
			return fail(err)
		}
		fmt.Println(h)
		return 0
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

	// Assemble the tracer: a JSONL stream, an in-memory collector for the
	// snapshot, or both. A CPU profile alone still needs an enabled tracer
	// so the stage spans apply their pprof labels.
	var sinks []rdlroute.Tracer
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			return fail(err)
		}
		jl := rdlroute.NewJSONLTracer(tf)
		defer func() {
			jl.Close()
			tf.Close()
		}()
		sinks = append(sinks, jl)
	}
	var coll *rdlroute.Collector
	if *stats || *statsJSON != "" || (*cpuprof != "" && len(sinks) == 0) {
		coll = rdlroute.NewCollector()
		sinks = append(sinks, coll)
	}
	var reg *rdlroute.MetricsRegistry
	if *metOut != "" {
		reg = rdlroute.NewMetricsRegistry()
		sinks = append(sinks, rdlroute.NewMetricsBridge(reg))
	}
	tracer := rdlroute.MultiTracer(sinks...)

	var snap *rdlroute.Snapshot
	var routeRes *rdlroute.Result // either flow's outcome, as -o saves it
	switch *flow {
	case "ours":
		opts := rdlroute.DefaultOptions()
		opts.EnableLP = !*noLP
		opts.UseWeights = !*noW
		opts.EnableVias = !*noVias
		opts.GlobalCells = *cells
		opts.RipUpRounds = *ripup
		opts.Workers = *workers
		opts.Tracer = tracer
		if *deltaIn != "" {
			df, err := os.Open(*deltaIn)
			if err != nil {
				return fail(err)
			}
			dl, err := rdlroute.DecodeDesignDeltaJSON(df)
			df.Close()
			if err != nil {
				return fail(err)
			}
			if dl.Base != "" {
				h, err := rdlroute.DesignContentHash(d)
				if err != nil {
					return fail(err)
				}
				if h != dl.Base {
					return fail(fmt.Errorf("delta base %s does not match the loaded design (content hash %s)", dl.Base, h))
				}
			}
			edited, err := rdlroute.ApplyDelta(d, dl)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("eco         delta applied: %d nets (base %d)\n", len(edited.Nets), len(d.Nets))
			d = edited
		}
		res, err := rdlroute.Route(d, opts)
		if err != nil {
			return fail(err)
		}
		snap = res.Obs
		routeRes = res
		fmt.Printf("design      %s\n", d.Name)
		fmt.Printf("flow        ours (via-based, 5 stages)\n")
		fmt.Printf("routability %.1f%% (%d/%d nets)\n", res.Routability, res.RoutedNets, res.TotalNets)
		fmt.Printf("wirelength  %.0f (before LP: %.0f)\n", res.Wirelength, res.WirelengthBeforeLP)
		fmt.Printf("stages      concurrent=%d sequential=%d (corridor=%d fallback=%d)\n",
			res.ConcurrentRouted, res.SequentialRouted, res.CorridorRouted, res.FallbackRouted)
		fmt.Printf("graph       %d octagonal tiles\n", res.TileCount)
		fmt.Printf("lp          %d iterations, %d components\n", res.LPIterations, res.LPComponents)
		fmt.Printf("vias        %d\n", res.Layout.ViaCount())
		fmt.Printf("runtime     %v\n", res.Runtime)
	case "linext":
		opts := rdlroute.DefaultBaselineOptions()
		opts.Tracer = tracer
		res, err := rdlroute.RouteLinExt(d, opts)
		if err != nil {
			return fail(err)
		}
		routeRes = &rdlroute.Result{
			Layout:           res.Layout,
			Routability:      res.Routability,
			Wirelength:       res.Wirelength,
			RoutedNets:       res.RoutedNets,
			TotalNets:        res.TotalNets,
			ConcurrentRouted: res.ConcurrentRouted,
			SequentialRouted: res.SequentialRouted,
			Runtime:          res.Runtime,
		}
		fmt.Printf("design      %s\n", d.Name)
		fmt.Printf("flow        Lin-ext (single-layer nets, fixed pad vias)\n")
		fmt.Printf("routability %.1f%% (%d/%d nets)\n", res.Routability, res.RoutedNets, res.TotalNets)
		fmt.Printf("wirelength  %.0f\n", res.Wirelength)
		fmt.Printf("stages      concurrent=%d sequential=%d\n", res.ConcurrentRouted, res.SequentialRouted)
		fmt.Printf("runtime     %v\n", res.Runtime)
	default:
		fmt.Fprintf(os.Stderr, "rdlroute: unknown flow %q\n", *flow)
		return 2
	}

	lay := routeRes.Layout

	if snap == nil && coll != nil {
		snap = coll.Snapshot()
	}
	if *stats && snap != nil {
		fmt.Println()
		if err := snap.WriteText(os.Stdout); err != nil {
			return fail(err)
		}
	}
	if *statsJSON != "" && snap != nil {
		f, err := os.Create(*statsJSON)
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			f.Close()
			return fail(err)
		}
		f.Close()
		fmt.Printf("stats       %s\n", *statsJSON)
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
			fmt.Printf("metrics     %s\n", *metOut)
		}
	}

	if *oJSON != "" {
		f, err := os.Create(*oJSON)
		if err != nil {
			return fail(err)
		}
		if err := rdlroute.EncodeResultJSON(f, routeRes); err != nil {
			f.Close()
			return fail(err)
		}
		f.Close()
		fmt.Printf("result      %s\n", *oJSON)
	}

	if *heat {
		m := rdlroute.BuildCongestion(lay, 24)
		for l := 0; l < d.WireLayers; l++ {
			if err := m.Render(os.Stdout, l); err != nil {
				return fail(err)
			}
		}
	}

	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			return fail(err)
		}
		opts := rdlroute.DefaultRenderOptions()
		opts.Layer = *layer
		if err := rdlroute.RenderSVG(f, lay, opts); err != nil {
			f.Close()
			return fail(err)
		}
		f.Close()
		fmt.Printf("svg         %s\n", *svg)
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

	if *check {
		vs := rdlroute.Check(lay)
		if len(vs) == 0 {
			fmt.Println("drc         clean")
		} else {
			fmt.Printf("drc         %d violations\n", len(vs))
			for i, v := range vs {
				if i >= 20 {
					fmt.Printf("  ... and %d more\n", len(vs)-20)
					break
				}
				fmt.Printf("  %v\n", v)
			}
			return 1
		}
	}
	return 0
}
