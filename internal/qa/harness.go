package qa

import (
	"context"
	"strings"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/par"
)

// Config parameterizes a harness run.
type Config struct {
	N    int   // number of random designs to generate and check
	Seed int64 // base seed; design i replays as Seed+i

	// Suite selects the oracle families beyond the core gates; the zero
	// value runs core-only, FullSuite() everything.
	Suite Suite

	// LPChecks runs this many planted-point simplex checks
	// (CheckLPAgreement) on random LPs (seeded from the same base).
	// Negative means one per design.
	LPChecks int

	// Shrink minimizes each failing design to a smaller reproducer and
	// attaches it to the failure report as an rdl-design/v1 document.
	Shrink bool

	// Parallel bounds the worker pool checking designs (0 = GOMAXPROCS,
	// 1 = sequential). Each design is generated, routed and checked from
	// its own seed with no shared state, and the report is merged in seed
	// order, so the Report is identical at every value. Log lines are
	// emitted in seed order once the sweep's designs resolve.
	Parallel int

	// Log, when non-nil, receives one progress line per design.
	Log func(format string, args ...any)
}

// designOutcome is one design's slot in the parallel sweep, merged in
// seed order.
type designOutcome struct {
	stats   CheckStats
	name    string
	failure *SeedFailure
}

// Run generates cfg.N seeded random designs and checks each against the
// oracle suite; design i uses seed cfg.Seed+i, so any failing design is
// replayed by a 1-design run at the printed seed. It then runs the
// planted-point LP checks. Everything is deterministic in cfg.Seed except the
// cancellation oracle's abort point, whose property must hold at any
// abort point.
func Run(cfg Config) Report {
	if cfg.N <= 0 {
		cfg.N = 1
	}
	lpChecks := cfg.LPChecks
	if lpChecks < 0 {
		lpChecks = cfg.N
	}
	outcomes, _ := par.Map(context.Background(), cfg.Parallel, cfg.N, func(i int) (designOutcome, error) {
		seed := cfg.Seed + int64(i)
		d := Generate(seed)
		st, fails := CheckDesign(d, seed, cfg.Suite)
		out := designOutcome{stats: st, name: d.Name}
		if len(fails) > 0 {
			sf := SeedFailure{Seed: seed, Failures: fails}
			if cfg.Shrink {
				sf.MinimalDesign, sf.MinimalNets, sf.MinimalFailure = shrinkFailure(d, seed, cfg.Suite)
			}
			out.failure = &sf
		}
		return out, nil
	})
	var rep Report
	for i, out := range outcomes {
		rep.Designs++
		rep.Nets += out.stats.Nets
		rep.Routed += out.stats.FlowRouted
		rep.Baseline += out.stats.BaseRouted
		if cfg.Log != nil {
			status := "ok"
			if out.failure != nil {
				status = "FAIL"
			}
			cfg.Log("qa: seed %d design %q nets %d flow %d linext %d %s",
				cfg.Seed+int64(i), out.name, out.stats.Nets, out.stats.FlowRouted, out.stats.BaseRouted, status)
		}
		if out.failure != nil {
			rep.Failures = append(rep.Failures, *out.failure)
		}
	}
	lpFails, _ := par.Map(context.Background(), cfg.Parallel, lpChecks, func(i int) (*SeedFailure, error) {
		seed := cfg.Seed + int64(i)
		if fails := CheckLPAgreement(seed); len(fails) > 0 {
			return &SeedFailure{Seed: seed, Failures: fails}, nil
		}
		return nil, nil
	})
	for _, sf := range lpFails {
		if sf != nil {
			rep.Failures = append(rep.Failures, *sf)
		}
	}
	return rep
}

// shrinkFailure minimizes d against "still fails any oracle" and renders
// the reproducer as an rdl-design/v1 document.
func shrinkFailure(d *design.Design, seed int64, suite Suite) (doc string, nets int, oracle string) {
	min := Shrink(d, func(c *design.Design) bool {
		_, fails := CheckDesign(c, seed, suite)
		if len(fails) > 0 {
			oracle = fails[0].Oracle
			return true
		}
		return false
	})
	var b strings.Builder
	if err := codec.EncodeDesign(&b, min); err != nil {
		return "", len(min.Nets), oracle
	}
	return b.String(), len(min.Nets), oracle
}
