package ctile_test

import (
	"context"
	"testing"

	"rdlroute/internal/ctile"
	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/layout"
	"rdlroute/internal/router"
)

// Microbenchmarks of the tile model on routed dense2. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/ctile

// routedDense2 routes dense2 without stage 5, so every wire and via sits
// where stage 4 left it.
func routedDense2(b *testing.B) (*design.Design, *layout.Layout) {
	b.Helper()
	spec, err := design.DenseSpec("dense2")
	if err != nil {
		b.Fatal(err)
	}
	d, err := design.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	opts := router.DefaultOptions()
	opts.EnableLP = false
	res, err := router.Route(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	return d, res.Layout
}

// routedModel returns the 30×30 tile model of d holding every routed wire
// and via of lay, with no cell built yet.
func routedModel(d *design.Design, lay *layout.Layout) *ctile.Model {
	m := ctile.NewModel(d, 30)
	for i := range lay.Routes {
		r := &lay.Routes[i]
		r.Segments(func(s geom.Segment) { m.AddWire(r.Layer, s) })
	}
	for _, v := range lay.Vias {
		m.AddVia(v.Slab, v.Center)
	}
	return m
}

// BenchmarkBuildAll partitions every (layer, cell) of the routed dense2
// model on one worker; building the model is not timed.
func BenchmarkBuildAll(b *testing.B) {
	d, lay := routedDense2(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := routedModel(d, lay)
		b.StartTimer()
		if err := m.BuildAll(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindCorridor runs one corridor search per dense2 net between
// its two pads on the routed model, with stage 3's via sites and the
// default via cost. One untimed pass builds the tiles and the corridor
// graph's caches first.
func BenchmarkFindCorridor(b *testing.B) {
	d, lay := routedDense2(b)
	m := routedModel(d, lay)
	if err := m.BuildAll(context.Background(), 1); err != nil {
		b.Fatal(err)
	}
	sites := m.InsertVias()
	terminal := func(r design.PadRef) (geom.Point, int) {
		if r.Kind == design.IOKind {
			return d.IOPads[r.Index].Center, 0
		}
		return d.BumpPads[r.Index].Center, d.WireLayers - 1
	}
	search := func() (found int) {
		for _, n := range d.Nets {
			from, fl := terminal(n.P1)
			to, tl := terminal(n.P2)
			if _, ok := m.FindCorridor(from, fl, to, tl, sites, 3*float64(design.Grid)); ok {
				found++
			}
		}
		return found
	}
	want := search()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := search(); got != want {
			b.Fatalf("%d corridors found, first pass %d", got, want)
		}
	}
}
