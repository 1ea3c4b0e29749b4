package lattice_test

import (
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/lattice"
	"rdlroute/internal/router"
)

// Microbenchmarks of the lattice's claim paths. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/lattice

func denseDesign(b *testing.B, name string) *design.Design {
	b.Helper()
	spec, err := design.DenseSpec(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := design.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkNew builds the dense2 and dense4 lattices, which claims the
// space around every pad and obstacle of the design.
func BenchmarkNew(b *testing.B) {
	for _, name := range []string{"dense2", "dense4"} {
		d := denseDesign(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lattice.New(d, design.Grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommit commits the wires and vias of a routed dense2 layout
// (before stage 5 moves them off the lattice) onto a fresh lattice; the
// lattice build is not timed.
func BenchmarkCommit(b *testing.B) {
	d := denseDesign(b, "dense2")
	opts := router.DefaultOptions()
	opts.EnableLP = false
	res, err := router.Route(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	lay := res.Layout
	paths := make([][]lattice.PathStep, len(lay.Routes))
	for i, r := range lay.Routes {
		for _, p := range r.Pts {
			paths[i] = append(paths[i], lattice.PathStep{Layer: r.Layer, Pt: p})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		la, err := lattice.New(d, design.Grid)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for k, p := range paths {
			la.Commit(p, lay.Routes[k].Net)
		}
		for _, v := range lay.Vias {
			la.CommitViaAt(v.Slab, v.Center, v.Net)
		}
	}
}
