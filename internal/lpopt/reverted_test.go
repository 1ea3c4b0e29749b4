package lpopt_test

import (
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/lpopt"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// TestRevertedCountsComponents holds Stats.Reverted and the reverted
// attribute of every lp.iter event to their meaning on Table-I circuits:
// distinct components reverted to initial geometry, never more than the
// components there are. Entity pairs pinned by the repair loop are not
// reverts.
func TestRevertedCountsComponents(t *testing.T) {
	for _, name := range []string{"dense1", "dense2", "dense3"} {
		spec, err := design.DenseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := design.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := router.DefaultOptions()
		opts.EnableLP = false
		res, err := router.Route(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := obs.NewCollector()
		st := lpopt.Optimize(res.Layout, lpopt.Options{MaxIters: opts.LPMaxIters, Tracer: c})
		if st.Reverted > st.Components {
			t.Errorf("%s: Reverted %d > Components %d", name, st.Reverted, st.Components)
		}
		for _, e := range c.Events("lp.iter") {
			if r := int(e.Num("reverted")); r > st.Components {
				t.Errorf("%s: lp.iter %v reports %d reverted of %d components", name, e.Num("iter"), r, st.Components)
			}
		}
		t.Logf("%s: %d of %d components reverted in %d iterations", name, st.Reverted, st.Components, st.Iterations)
	}
}
