package qa

import (
	"flag"
	"strings"
	"testing"

	"rdlroute/internal/design"
)

// replaySeed replays one design seed through the full oracle suite:
//
//	go test ./internal/qa -run TestReplaySeed -replay-seed 1236
//
// Every harness failure prints this invocation, so a CI failure reproduces
// locally with a single copy-pasted command.
var replaySeed = flag.Int64("replay-seed", -1, "design seed to replay through the full oracle suite")

// sweepSize returns how many designs TestHarnessSweep checks. The full
// 200-design sweep is the acceptance gate; -short keeps the edit-compile
// loop fast, and the race detector's ~10× routing overhead gets a smaller
// sweep so `go test -race ./...` stays usable (the full sweep runs
// race-free in the verify script's qa stage).
func sweepSize() int {
	n := 200
	if testing.Short() {
		n = 40
	}
	if raceEnabled && n > 25 {
		n = 25
	}
	return n
}

// TestHarnessSweep is the package's acceptance gate: N seeded random
// designs — irregular pad rings, area pads, obstacle clutter, adversarial
// near-minimum spacing — each routed through the concurrent five-stage
// flow and the Lin-ext baseline with the full oracle suite (DRC,
// connectivity, wirelength, codec round-trip, cancellation, differential
// and metamorphic gates), plus one planted-point simplex check per
// design.
func TestHarnessSweep(t *testing.T) {
	n := sweepSize()
	rep := Run(Config{N: n, Seed: 1, Suite: FullSuite(), LPChecks: -1, Shrink: true})
	if rep.Designs != n {
		t.Fatalf("checked %d designs, want %d", rep.Designs, n)
	}
	for _, sf := range rep.Failures {
		t.Error(sf.String())
	}
	// Sanity floor: the flow routes the large majority of generated nets.
	// A generator or router regression that strands half the nets would
	// otherwise pass silently as long as each layout stays legal.
	if rep.Routed*10 < rep.Nets*8 {
		t.Errorf("flow routed only %d of %d nets across the sweep", rep.Routed, rep.Nets)
	}
	t.Logf("qa sweep: %d designs, %d nets, flow %d, lin-ext %d", rep.Designs, rep.Nets, rep.Routed, rep.Baseline)
}

// TestReplaySeed re-checks a single seed with the full suite. Without the
// flag it smoke-tests one fixed seed so the replay path itself stays
// exercised; with -replay-seed it is the debugging entry point the
// failure messages advertise.
func TestReplaySeed(t *testing.T) {
	seed := *replaySeed
	if seed < 0 {
		seed = 7
	}
	d := Generate(seed)
	st, fails := CheckDesign(d, seed, FullSuite())
	for _, f := range fails {
		t.Errorf("seed %d %s: %s", seed, d.Name, f)
	}
	t.Logf("seed %d %s: %d nets, flow %d, lin-ext %d", seed, d.Name, st.Nets, st.FlowRouted, st.BaseRouted)
}

// TestRegressionCornerCutSeed1236 pins the lattice corner-cutting fix.
// This seed generates a spacing-8 adversarial design whose routes, before
// the edge-occupancy guard, slipped a 45° wire between two clear lattice
// nodes while dipping to ≈8.49−w/2 from a pad corner — a real spacing
// violation both routers produced and DRC caught.
func TestRegressionCornerCutSeed1236(t *testing.T) {
	d := Generate(1236)
	_, fails := CheckDesign(d, 1236, Suite{})
	for _, f := range fails {
		t.Errorf("seed 1236 %s: %s", d.Name, f)
	}
}

// TestFailureReportPrintsSeed holds the harness to its replay contract:
// every failure names the seed and prints both replay invocations, and
// the report embeds the minimal reproducer, an rdl-design/v1 document
// rdlroute can replay, when shrinking ran.
func TestFailureReportPrintsSeed(t *testing.T) {
	min := Shrink(Generate(4242), func(c *design.Design) bool { return len(c.Nets) > 0 })
	sf := SeedFailure{
		Seed:           4242,
		Failures:       []Failure{{Oracle: "flow-drc", Detail: "2 violations"}},
		MinimalDesign:  formatDesign(t, min),
		MinimalNets:    len(min.Nets),
		MinimalFailure: "flow-drc",
	}
	out := sf.String()
	for _, want := range []string{
		"seed 4242",
		"flow-drc: 2 violations",
		"rdlverify -random 1 -seed 4242",
		"go test ./internal/qa -run TestReplaySeed -replay-seed 4242",
		"minimal reproducer (1 nets",
		"rdlroute -design repro.json -check",
		`"schema": "rdl-design/v1"`,
		`"name": "` + min.Name + `"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("failure report missing %q:\n%s", want, out)
		}
	}
	rep := Report{Designs: 3, Failures: []SeedFailure{sf}}
	if rep.OK() {
		t.Error("report with failures claims OK")
	}
	if !strings.Contains(rep.String(), "seed 4242") {
		t.Errorf("report does not surface the failing seed:\n%s", rep)
	}
	if !(Report{Designs: 3}).OK() {
		t.Error("failure-free report does not claim OK")
	}
}

// TestLPAgreementSweep runs the planted-point simplex check on its own,
// over more seeds than the design sweep carries.
func TestLPAgreementSweep(t *testing.T) {
	n := int64(500)
	if testing.Short() {
		n = 100
	}
	for seed := int64(0); seed < n; seed++ {
		for _, f := range CheckLPAgreement(seed) {
			t.Errorf("lp seed %d: %s", seed, f)
		}
	}
}
