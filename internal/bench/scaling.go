package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// ScalingRow is one (circuit, workers) cell of the scaling experiment:
// the same circuit routed with Options.Workers set to each count, timed,
// and fingerprint-checked against the workers=1 run.
type ScalingRow struct {
	Name        string  `json:"circuit"`
	Workers     int     `json:"workers"`
	Seconds     float64 `json:"seconds"`
	Speedup     float64 `json:"speedup_vs_1"`
	Routability float64 `json:"routability"`
	Wirelength  float64 `json:"wirelength"`
	Fingerprint uint64  `json:"fingerprint"`
	// Deterministic reports whether this run's lattice fingerprint,
	// routability and wirelength match the workerCounts[0] run of the
	// same circuit — the determinism contract measured, not assumed.
	Deterministic bool `json:"deterministic"`
}

// RunScaling routes each named circuit once per worker count, in order,
// and reports wall time plus the determinism check against the first
// count's run (pass 1 first to compare against the sequential path).
// Runs are never overlapped: overlapping them would corrupt the timings
// the experiment exists to measure.
func RunScaling(names []string, workerCounts []int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, name := range names {
		spec, err := design.DenseSpec(name)
		if err != nil {
			return nil, err
		}
		var baseSec float64
		var baseFP uint64
		var baseRes *router.Result
		for wi, w := range workerCounts {
			d, err := design.Generate(spec)
			if err != nil {
				return nil, err
			}
			opts := routerOptions()
			opts.Workers = w
			start := time.Now()
			res, fp, err := router.RouteFingerprint(context.Background(), d, opts)
			if err != nil {
				return nil, err
			}
			sec := time.Since(start).Seconds()
			row := ScalingRow{
				Name: name, Workers: w, Seconds: sec,
				Routability: res.Routability, Wirelength: res.Wirelength,
				Fingerprint: fp,
			}
			if wi == 0 {
				baseSec, baseFP, baseRes = sec, fp, res
			}
			row.Deterministic = fp == baseFP &&
				res.Routability == baseRes.Routability &&
				res.Wirelength == baseRes.Wirelength
			if sec > 0 {
				row.Speedup = baseSec / sec
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatScaling renders the scaling rows as a fixed-width table.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %7s %9s %8s %7s %12s %5s\n",
		"Circuit", "Workers", "Seconds", "Speedup", "Route%", "Wirelength", "Det")
	for _, r := range rows {
		det := "yes"
		if !r.Deterministic {
			det = "NO"
		}
		fmt.Fprintf(&b, "%-8s %7d %9.2f %8.2f %6.1f%% %12.0f %5s\n",
			r.Name, r.Workers, r.Seconds, r.Speedup, r.Routability, r.Wirelength, det)
	}
	return b.String()
}
