package lattice_test

import (
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/lattice"
	"rdlroute/internal/router"
)

// Microbenchmarks of the lattice's claim paths and its search. Run with
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

// BenchmarkRoute times single searches on a bare 3-layer design of
// 200×200 nodes at pitch 12. A closed square of obstacles stands on every
// layer near one corner, and a wall on every layer, with one gap at the
// far end, cuts the design in two; both searches start at the opposite
// corner.
//
//   - walled: the goal sits inside the square, which no wire or via can
//     leave, so the search fails. A* alone exhausts every node it can
//     reach from the start; the goal-side flood refutes the search once
//     it has walked the square's interior.
//   - detour: the goal sits outside the square behind the wall, so the
//     search succeeds through the gap and pays for the flood without
//     gaining from it.
//
// One untimed call per case sizes the search buffers first.
func BenchmarkRoute(b *testing.B) {
	const pitch = 12
	side := int64(199 * pitch)
	d := &design.Design{
		Name:       "route-bench",
		Outline:    geom.RectWH(0, 0, side, side),
		WireLayers: 3,
		Rules:      design.Rules{Spacing: 5, WireWidth: 4, ViaWidth: 16},
	}
	wall := func(box geom.Rect) {
		for l := 0; l < d.WireLayers; l++ {
			d.Obstacles = append(d.Obstacles, design.Obstacle{Layer: l, Box: box})
		}
	}
	// The square: 20 pitches a side, one pitch thick.
	x0, y0, sq := int64(160*pitch), int64(30*pitch), int64(20*pitch)
	wall(geom.RectWH(x0, y0, sq, pitch))
	wall(geom.RectWH(x0, y0+sq-pitch, sq, pitch))
	wall(geom.RectWH(x0, y0, pitch, sq))
	wall(geom.RectWH(x0+sq-pitch, y0, pitch, sq))
	// The wall: two pitches thick at x = 100 pitches, open for the top 8
	// pitches.
	wall(geom.RectWH(100*pitch, 0, 2*pitch, side-8*pitch))
	la, err := lattice.New(d, pitch)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		to   geom.Point
		ok   bool
	}{
		{"walled", geom.Pt(x0+sq/2, y0+sq/2), false},
		{"detour", geom.Pt(170*pitch, 100*pitch), true},
	} {
		req := lattice.Request{From: geom.Pt(0, 0), To: tc.to, FromLayer: 0, ToLayer: 2}
		b.Run(tc.name, func(b *testing.B) {
			if _, _, ok := la.Route(req); ok != tc.ok {
				b.Fatalf("route ok = %v, want %v", ok, tc.ok)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := la.Route(req); ok != tc.ok {
					b.Fatalf("route ok = %v, want %v", ok, tc.ok)
				}
			}
		})
	}
}
