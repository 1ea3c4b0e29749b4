package router

import (
	"context"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/lattice"
	"rdlroute/internal/layout"
	"rdlroute/internal/obs"
)

// ripUpReroute is an extension beyond the paper's flow: for each net that
// the sequential stage could not complete, find the committed nets
// standing in its way with a ghost search (foreign claims ignored), rip
// them out, route the failed net, and re-route the victims. The candidate
// result is accepted only when strictly more nets end up routed, so the
// stage never regresses. It returns the net count gained and the rebuilt
// lattice in use afterwards.
// Cancellation: every per-net attempt polls ctx; on cancellation the stage
// returns immediately with whatever was legally accepted so far (candidate
// worlds are only ever swapped in whole, so a cancelled round leaves the
// layout and lattice consistent — the caller then surfaces ctx's error).
func ripUpReroute(ctx context.Context, d *design.Design, la *lattice.Lattice, lay *layout.Layout, opts Options, rounds int, tr obs.Tracer) (int, *lattice.Lattice) {
	gained := 0
	for round := 0; round < rounds; round++ {
		var unrouted []int
		for ni := range d.Nets {
			if !lay.Routed(ni) {
				unrouted = append(unrouted, ni)
			}
		}
		if len(unrouted) == 0 {
			break
		}
		progress := false
		for _, ni := range unrouted {
			if ctx.Err() != nil {
				return gained, la
			}
			if lay.Routed(ni) {
				continue
			}
			nn := d.Nets[ni]
			from, fromLayer := terminal(d, nn.P1)
			to, toLayer := terminal(d, nn.P2)
			ghost, _, ok := la.Route(lattice.Request{
				Net: ni, From: from, To: to,
				FromLayer: fromLayer, ToLayer: toLayer,
				ViaCost: opts.ViaCost, IgnoreForeign: true,
				Ctx: ctx,
			})
			if !ok {
				continue // hard-blocked: rip-up cannot help
			}
			victims := la.OwnersOnPath(ghost, ni)
			if len(victims) == 0 || len(victims) > 4 {
				continue
			}
			sort.Ints(victims)

			// Build the candidate world without the victims.
			cand := lay.Clone()
			for _, v := range victims {
				cand.RemoveNet(v)
			}
			la2, err := rebuildLattice(d, cand, opts)
			if err != nil {
				continue
			}
			la2.SetTracer(tr)
			if !routeOn(ctx, d, la2, cand, ni, opts) {
				continue
			}
			for _, v := range victims {
				routeOn(ctx, d, la2, cand, v, opts)
			}
			if cand.RoutedCount() > lay.RoutedCount() {
				gained += cand.RoutedCount() - lay.RoutedCount()
				*lay = *cand
				la = la2
				progress = true
				if tr.Enabled() {
					tr.Event("net.route",
						obs.Int("net", ni),
						obs.String("stage", "ripup"),
						obs.String("mode", "ripup"),
						obs.Int("round", round),
						obs.String("outcome", "routed"),
						obs.Int("victims", len(victims)))
					tr.Count("ripup.recovered", 1)
				}
			}
		}
		if !progress {
			break
		}
	}
	return gained, la
}

// routeOn routes one net on the lattice with an unrestricted multi-layer
// search and commits it on success.
func routeOn(ctx context.Context, d *design.Design, la *lattice.Lattice, lay *layout.Layout, ni int, opts Options) bool {
	nn := d.Nets[ni]
	from, fromLayer := terminal(d, nn.P1)
	to, toLayer := terminal(d, nn.P2)
	path, _, ok := la.Route(lattice.Request{
		Net: ni, From: from, To: to,
		FromLayer: fromLayer, ToLayer: toLayer,
		ViaCost: opts.ViaCost,
		Ctx:     ctx,
	})
	if !ok {
		return false
	}
	la.Commit(path, ni)
	lay.AddPath(ni, path)
	lay.MarkRouted(ni)
	return true
}

// rebuildLattice constructs a fresh lattice and re-commits every route and
// via present in the layout.
func rebuildLattice(d *design.Design, lay *layout.Layout, opts Options) (*lattice.Lattice, error) {
	la, err := lattice.New(d, design.Grid)
	if err != nil {
		return nil, err
	}
	for i := range lay.Routes {
		r := &lay.Routes[i]
		steps := make([]lattice.PathStep, len(r.Pts))
		for k, p := range r.Pts {
			steps[k] = lattice.PathStep{Layer: r.Layer, Pt: p}
		}
		la.Commit(steps, r.Net)
	}
	for _, v := range lay.Vias {
		la.CommitViaAt(v.Slab, v.Center, v.Net)
	}
	return la, nil
}
