// Command rdlverify checks routing results against the design rules.
//
// File mode re-runs the full design-rule checker (spacing, crossing,
// angle rules and connectivity) on a saved result and reports the
// Table-I metrics of the stored layout:
//
//	rdlgen   -name dense1 -o design.json                # an rdl-design/v1 document
//	rdlroute -design design.json -o result.json         # an rdl-result/v1 document
//	rdlverify -design design.json -routes result.json
//
// Both files are decoded by the wire codec, which validates them: a
// result for another design, or one naming a net, layer or slab the
// design does not have, is an input error (exit 2) that names the JSON
// path of the offending value, never a DRC report.
//
// Random mode runs the qa harness instead: N seeded random designs are
// generated and routed through both the concurrent flow and the Lin-ext
// baseline, with the full oracle suite (DRC, connectivity, wirelength,
// codec round-trip, cancellation, differential and metamorphic gates)
// asserted on every one. Failures print a deterministically-replaying
// seed and a shrunken reproducer:
//
//	rdlverify -random 200
//	rdlverify -random 1 -seed 1236        # replay a reported failure
//
// Both modes exit 0 only when everything is clean and support -json for
// machine-readable reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rdlroute"
	"rdlroute/internal/qa"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, dispatches to file or
// random mode, writes reports to stdout and diagnostics to stderr, and
// returns the process exit code — 0 clean, 1 violations or oracle
// failures, 2 usage or input errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdlverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		designPath = fs.String("design", "", "design file (rdl-design/v1 JSON, from rdlgen)")
		routesPath = fs.String("routes", "", "routing result file (rdl-result/v1 JSON, from rdlroute -o)")
		maxPrint   = fs.Int("max-violations", 20, "maximum violations to print")
		jsonOut    = fs.Bool("json", false, "emit a machine-readable JSON report")
		randomN    = fs.Int("random", 0, "run the qa harness on N seeded random designs")
		seed       = fs.Int64("seed", 1, "base seed for -random; design i uses seed+i")
		parallel   = fs.Int("parallel", 1, "check up to this many -random designs concurrently (0 = GOMAXPROCS); the report is identical at every value")
		metOut     = fs.String("metrics", "", `with -random: write the sweep's production metrics (per-stage latency, A* effort) as a Prometheus text exposition to this file ("-" = stdout)`)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *randomN > 0 {
		return runRandom(*randomN, *seed, *parallel, *jsonOut, *metOut, stdout, stderr)
	}
	if *designPath == "" || *routesPath == "" {
		fmt.Fprintln(stderr, "rdlverify: need -design and -routes (or -random N)")
		return 2
	}
	return runFile(*designPath, *routesPath, *maxPrint, *jsonOut, stdout, stderr)
}

// fileReport is the -json shape of file mode.
type fileReport struct {
	Design      string   `json:"design"`
	Nets        int      `json:"nets"`
	WireLayers  int      `json:"wire_layers"`
	Polylines   int      `json:"polylines"`
	Vias        int      `json:"vias"`
	Routed      int      `json:"routed"`
	Routability float64  `json:"routability_pct"`
	Wirelength  float64  `json:"wirelength"`
	Clean       bool     `json:"clean"`
	Violations  []string `json:"violations,omitempty"`
}

func runFile(designPath, routesPath string, maxPrint int, jsonOut bool, stdout, stderr io.Writer) int {
	df, err := os.Open(designPath)
	if err != nil {
		fmt.Fprintln(stderr, "rdlverify:", err)
		return 2
	}
	d, err := rdlroute.DecodeDesignJSON(df)
	df.Close()
	if err != nil {
		fmt.Fprintf(stderr, "rdlverify: %s: %v\n", designPath, err)
		return 2
	}
	rf, err := os.Open(routesPath)
	if err != nil {
		fmt.Fprintln(stderr, "rdlverify:", err)
		return 2
	}
	res, err := rdlroute.DecodeResultJSON(rf, d)
	rf.Close()
	if err != nil {
		fmt.Fprintf(stderr, "rdlverify: %s: %v\n", routesPath, err)
		return 2
	}
	lay := res.Layout

	vs := rdlroute.Check(lay)
	rep := fileReport{
		Design:      d.Name,
		Nets:        len(d.Nets),
		WireLayers:  d.WireLayers,
		Polylines:   len(lay.Routes),
		Vias:        len(lay.Vias),
		Routed:      lay.RoutedCount(),
		Routability: lay.Routability(),
		Wirelength:  lay.Wirelength(),
		Clean:       len(vs) == 0,
	}
	for _, v := range vs {
		rep.Violations = append(rep.Violations, v.String())
	}

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "rdlverify:", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "design      %s (%d nets, %d wire layers)\n", rep.Design, rep.Nets, rep.WireLayers)
		fmt.Fprintf(stdout, "routes      %d polylines, %d vias\n", rep.Polylines, rep.Vias)
		fmt.Fprintf(stdout, "routability %.1f%% (%d/%d nets)\n", rep.Routability, rep.Routed, rep.Nets)
		fmt.Fprintf(stdout, "wirelength  %.0f\n", rep.Wirelength)
		if rep.Clean {
			fmt.Fprintln(stdout, "drc         clean")
		} else {
			fmt.Fprintf(stdout, "drc         %d violations\n", len(rep.Violations))
			for i, v := range rep.Violations {
				if i >= maxPrint {
					fmt.Fprintf(stdout, "  ... and %d more\n", len(rep.Violations)-maxPrint)
					break
				}
				fmt.Fprintf(stdout, "  %s\n", v)
			}
		}
	}
	if !rep.Clean {
		return 1
	}
	return 0
}

// randomReport is the -json shape of random mode.
type randomReport struct {
	Seed int64 `json:"seed"`
	qa.Report
	OK bool `json:"ok"`
}

func runRandom(n int, seed int64, parallel int, jsonOut bool, metOut string, stdout, stderr io.Writer) int {
	var reg *rdlroute.MetricsRegistry
	if metOut != "" {
		reg = rdlroute.NewMetricsRegistry()
		qa.Tracer = rdlroute.NewMetricsBridge(reg)
		defer func() { qa.Tracer = nil }()
	}
	cfg := qa.Config{
		N:        n,
		Seed:     seed,
		Suite:    qa.FullSuite(),
		LPChecks: -1,
		Shrink:   true,
		Parallel: parallel,
	}
	if !jsonOut {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	rep := qa.Run(cfg)
	if reg != nil {
		w := stdout
		if metOut != "-" {
			f, err := os.Create(metOut)
			if err != nil {
				fmt.Fprintln(stderr, "rdlverify:", err)
				return 2
			}
			defer f.Close()
			w = f
		}
		if err := reg.WriteText(w); err != nil {
			fmt.Fprintln(stderr, "rdlverify:", err)
			return 2
		}
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(randomReport{Seed: seed, Report: rep, OK: rep.OK()}); err != nil {
			fmt.Fprintln(stderr, "rdlverify:", err)
			return 2
		}
	} else {
		fmt.Fprint(stdout, rep.String())
	}
	if !rep.OK() {
		return 1
	}
	return 0
}
