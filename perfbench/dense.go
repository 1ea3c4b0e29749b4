package main

import (
	"context"
	"fmt"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// runDense runs a dense workload: each iteration cold-routes the named
// Table I circuits once through router.RouteFingerprint. Every seed routes
// the Table I circuits themselves (their own GenSpec seeds), so the
// results line up with EXPERIMENTS.md and pin them, and runs on different
// seeds measure the same work: circuits generated from other seeds differ
// in route time by more than a third of any usable bound.
func runDense(b *bench, names ...string) error {
	var rs *routeSet
	setupS, err := timeSetup(9, func() error {
		var designs []*design.Design
		for _, name := range names {
			spec, err := design.DenseSpec(name)
			if err != nil {
				return err
			}
			d, err := design.Generate(spec)
			if err != nil {
				return err
			}
			designs = append(designs, d)
		}
		var err error
		rs, err = newRouteSet(b, designs)
		return err
	})
	if err != nil {
		return err
	}
	// The warm-up route runs once, after the timed set-ups: it is a route,
	// which route_s measures, and on a loaded 2-core machine its time
	// drifted about twice as far as route_s from run to run, which would
	// swamp the set-up work itself.
	t0 := time.Now()
	if err := warmUpRoute(rs.opts); err != nil {
		return err
	}
	fmt.Printf("warm-up route: %.4f s\n", time.Since(t0).Seconds())
	for _, d := range rs.designs {
		fmt.Printf("design %s: %d nets, %d wire layers\n", d.Name, len(d.Nets), d.WireLayers)
	}
	if b.traced {
		return tracedDense(b, rs)
	}

	// At least two iterations, so that every route is held to a second
	// route of the same design.
	heap := startHeapPeak()
	start := time.Now()
	var iters []float64
	var routes []time.Duration
	for len(iters) < 2 || time.Since(start) < b.duration {
		lat := rs.untraced()
		routes = append(routes, lat...)
		iters = append(iters, total(lat).Seconds())
	}
	peak := heap.stop()
	routed, wl, lb := rs.totals()
	b.reportEndToEnd(endToEnd{
		routeS:     median(iters),
		routedNets: routed,
		wirelength: wl,
		lowerBound: lb,
		jobs:       routes,
		jobWall:    total(routes),
		setupS:     setupS,
		peakHeap:   peak,
	})
	return nil
}

// warmUpRoute routes the Table I dense1 circuit once, so that code paths
// and the heap are warm before timing starts.
func warmUpRoute(opts router.Options) error {
	spec, err := design.DenseSpec("dense1")
	if err != nil {
		return err
	}
	d, err := design.Generate(spec)
	if err != nil {
		return err
	}
	if _, err := router.RouteContext(context.Background(), d, opts); err != nil {
		return fmt.Errorf("warm-up route: %w", err)
	}
	return nil
}

// tracedDense is the traced run of a dense workload: untraced and traced
// iterations alternate until the run time is up, then every design goes
// through the HTTP service twice for the serve layer.
func tracedDense(b *bench, rs *routeSet) error {
	tr := newMemTracer()
	plain, traced := rs.tracedPass(tr, 1, b.duration)
	b.reportRouteLayers(rs, tr, plain, traced)
	st, err := serveProbe(b, rs)
	if err != nil {
		return err
	}
	b.reportServeLayers(st)
	b.set("drc.violations", "count", float64(b.drcViolations))
	return b.writeTrace(tr)
}
