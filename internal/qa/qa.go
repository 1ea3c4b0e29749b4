// Package qa is the randomized correctness harness of the repository: a
// seeded random design generator (irregular pad mixes, peripheral and
// area I/O, obstacle clutter, adversarial near-minimum spacing), a
// property harness that routes every generated design through both the
// concurrent five-stage flow and the Lin-ext baseline and asserts an
// oracle suite with the design-rule checker as the independent judge,
// a differential gate (flow vs. baseline routability), a planted-point
// check of the simplex, metamorphic gates (translation, net permutation,
// Y-axis mirroring), and a shrinker that reduces a failing design to a
// minimal reproducer.
//
// Everything is deterministic in the seed: a failure report always names
// the design seed, and re-running the harness with that seed replays the
// identical design and checks. The harness is exposed to users as
// `rdlverify -random N -seed S` and to CI as `go test ./internal/qa`.
package qa

import (
	"fmt"
	"strings"
)

// Failure is one oracle violation found while checking a design.
type Failure struct {
	Oracle string // which gate fired, e.g. "drc", "diff-routability"
	Detail string
}

// String implements fmt.Stringer.
func (f Failure) String() string { return f.Oracle + ": " + f.Detail }

// SeedFailure couples a design seed with every oracle failure observed on
// that design, plus (when shrinking is enabled) a minimal reproducer.
type SeedFailure struct {
	Seed     int64
	Failures []Failure

	// MinimalDesign is the shrunken failing design as an rdl-design/v1
	// document, present when the harness ran with shrinking enabled.
	MinimalDesign string
	// MinimalNets and MinimalFailure describe the shrunken reproducer.
	MinimalNets    int
	MinimalFailure string
}

// String renders the failure with deterministic replay instructions.
func (sf SeedFailure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qa: design seed %d failed %d oracle(s):\n", sf.Seed, len(sf.Failures))
	for _, f := range sf.Failures {
		fmt.Fprintf(&b, "  - %s\n", f)
	}
	fmt.Fprintf(&b, "  replay: rdlverify -random 1 -seed %d\n", sf.Seed)
	fmt.Fprintf(&b, "  replay: go test ./internal/qa -run TestReplaySeed -replay-seed %d\n", sf.Seed)
	if sf.MinimalDesign != "" {
		fmt.Fprintf(&b, "  minimal reproducer (%d nets, fails %q; save as repro.json, replay: rdlroute -design repro.json -check):\n",
			sf.MinimalNets, sf.MinimalFailure)
		for _, line := range strings.Split(strings.TrimRight(sf.MinimalDesign, "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}

// Report is the outcome of a harness run.
type Report struct {
	Designs  int // designs generated and checked
	Routed   int // nets routed by the five-stage flow, summed
	Baseline int // nets routed by Lin-ext, summed
	Nets     int // total nets across all designs
	Failures []SeedFailure
}

// OK reports whether every oracle held on every design.
func (r Report) OK() bool { return len(r.Failures) == 0 }

// String summarizes the run.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qa: %d designs, %d nets (flow routed %d, lin-ext routed %d), %d failing seed(s)\n",
		r.Designs, r.Nets, r.Routed, r.Baseline, len(r.Failures))
	for _, sf := range r.Failures {
		b.WriteString(sf.String())
	}
	return b.String()
}
