package qa

import (
	"strings"
	"testing"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/layout"
)

// formatDesign renders d as its rdl-design/v1 document for byte-level
// comparison.
func formatDesign(t *testing.T, d *design.Design) string {
	t.Helper()
	var b strings.Builder
	if err := codec.EncodeDesign(&b, d); err != nil {
		t.Fatalf("format %s: %v", d.Name, err)
	}
	return b.String()
}

// TestGenerateDeterministic: the same seed must produce the identical
// design, byte for byte — seed replay is the harness's whole debugging
// story.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 17, 123, 1236} {
		a := formatDesign(t, Generate(seed))
		b := formatDesign(t, Generate(seed))
		if a != b {
			t.Errorf("seed %d generated two different designs", seed)
		}
	}
}

// TestGenerateValidAndClean: every generated instance passes Validate and
// its unrouted layout is DRC-clean, so any violation the oracles find
// later was introduced by a router, never by the generator. The sweep
// also asserts the generator actually exercises its diversity knobs:
// multiple spacing rules and both design families must appear.
func TestGenerateValidAndClean(t *testing.T) {
	spacings := map[int64]bool{}
	families := map[bool]bool{}
	for seed := int64(0); seed < 60; seed++ {
		d := Generate(seed)
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: invalid design: %v", seed, err)
		}
		if vs := drc.Check(layout.New(d)); len(vs) != 0 {
			t.Errorf("seed %d: unrouted layout has %d violations: %v", seed, len(vs), vs[0])
		}
		if len(d.Nets) == 0 {
			t.Errorf("seed %d: design has no nets", seed)
		}
		spacings[d.Rules.Spacing] = true
		families[strings.HasPrefix(d.Name, "qa-adv-")] = true
	}
	if len(spacings) < 2 {
		t.Errorf("60 seeds produced only spacing rules %v", spacings)
	}
	if len(families) < 2 {
		t.Error("60 seeds produced only one design family")
	}
}
