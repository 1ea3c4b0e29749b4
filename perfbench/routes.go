package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/layout"
	"rdlroute/internal/lpopt"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// outcome is what every route of a design in one run must reproduce.
type outcome struct {
	routed int
	wl     float64
	fp     uint64 // lattice occupancy fingerprint
}

// routeSet is the designs one iteration routes directly through the
// router. The first route of each design sets its reference outcome and
// quality; every later route of it must reproduce the outcome.
type routeSet struct {
	b       *bench
	designs []*design.Design
	docs    [][]byte // rdl-design/v1 document of each design
	opts    router.Options
	ref     []*outcome
	quality []layout.Quality
	runs    int // traced routes so far, the tracer's run IDs

	// Layer measurements accumulated over the run.
	drcTime                time.Duration
	drcChecks              int
	untracedRoutes         int
	allocBytes, gcCycles   uint64        // Go runtime, over the untraced routes
	lpoptTime              time.Duration // standalone untraced lpopt.Optimize
	lpStats                []lpopt.Stats // traced stage-5 runs
	decodeTime, encodeTime time.Duration
	resultBytes, codecRuns int
}

func newRouteSet(b *bench, designs []*design.Design) (*routeSet, error) {
	rs := &routeSet{b: b, designs: designs, opts: paperOptions(),
		ref: make([]*outcome, len(designs)), quality: make([]layout.Quality, len(designs))}
	for _, d := range designs {
		doc, err := encodeDesign(d)
		if err != nil {
			return nil, err
		}
		rs.docs = append(rs.docs, doc)
	}
	return rs, nil
}

// encodeDesign returns the rdl-design/v1 document of d.
func encodeDesign(d *design.Design) ([]byte, error) {
	var buf bytes.Buffer
	if err := codec.EncodeDesign(&buf, d); err != nil {
		return nil, fmt.Errorf("encode design %s: %w", d.Name, err)
	}
	return buf.Bytes(), nil
}

// untraced routes every design once with tracing off, checks each result,
// and returns the wall time of each route.
func (rs *routeSet) untraced() []time.Duration {
	lat := make([]time.Duration, 0, len(rs.designs))
	for i, d := range rs.designs {
		a0, c0 := gcCounters()
		t0 := time.Now()
		res, fp, err := router.RouteFingerprint(context.Background(), d, rs.opts)
		dt := time.Since(t0)
		a1, c1 := gcCounters()
		rs.allocBytes += a1 - a0
		rs.gcCycles += c1 - c0
		rs.untracedRoutes++
		lat = append(lat, dt)
		rs.b.attempted++
		if err != nil {
			rs.b.fail("%s: route: %v", d.Name, err)
			continue
		}
		rs.check(i, res.Layout, fp)
	}
	return lat
}

// traced routes every design once with tr attached and returns the traced
// wall time. Stage 5 runs outside the router: the route has EnableLP off,
// then lpopt.Optimize runs untraced on a copy of the layout (the
// standalone lpopt timing) and traced on the layout itself, inside a
// "stage:lp" span. The traced wall time is the route plus the traced
// stage 5, and the optimized layout must equal the full flow's.
func (rs *routeSet) traced(tr *memTracer) time.Duration {
	opts := rs.opts
	opts.EnableLP = false
	opts.Tracer = tr
	var wall time.Duration
	for i, d := range rs.designs {
		rs.b.attempted++
		tr.setRun(rs.runs)
		rs.runs++
		sp := tr.Span("route", obs.String("design", d.Name))
		t0 := time.Now()
		res, fp, err := router.RouteFingerprint(context.Background(), d, opts)
		wall += time.Since(t0)
		sp.End()
		if err != nil {
			rs.b.fail("%s: traced route: %v", d.Name, err)
			continue
		}

		standalone := res.Layout.Clone()
		t1 := time.Now()
		lpopt.Optimize(standalone, lpopt.Options{MaxIters: rs.opts.LPMaxIters})
		rs.lpoptTime += time.Since(t1)

		sp = tr.Span("stage:lp")
		t2 := time.Now()
		st := lpopt.Optimize(res.Layout, lpopt.Options{MaxIters: rs.opts.LPMaxIters, Tracer: tr})
		wall += time.Since(t2)
		sp.End()
		rs.lpStats = append(rs.lpStats, st)

		var problems []string
		if a, b := standalone.Wirelength(), res.Layout.Wirelength(); a != b {
			problems = append(problems, fmt.Sprintf("standalone lpopt wirelength %.4f, traced %.4f", a, b))
		}
		rs.check(i, res.Layout, fp, problems...)
		rs.timeCodec(i, res)
	}
	return wall
}

// check DRC-checks a routed layout and holds it to the design's reference
// outcome; the first layout checked sets the reference. Problems the
// caller found are reported with its own as one failed operation.
func (rs *routeSet) check(i int, lay *layout.Layout, fp uint64, problems ...string) {
	t0 := time.Now()
	vs := drc.Check(lay)
	rs.drcTime += time.Since(t0)
	rs.drcChecks++
	rs.b.drcViolations += len(vs)
	if len(vs) > 0 {
		problems = append(problems, fmt.Sprintf("%d DRC violations, first: %v", len(vs), vs[0]))
	}
	got := outcome{routed: lay.RoutedCount(), wl: lay.Wirelength(), fp: fp}
	switch ref := rs.ref[i]; {
	case ref == nil:
		rs.ref[i] = &got
		rs.quality[i] = lay.QualityStats()
	case got != *ref:
		problems = append(problems, fmt.Sprintf("routed/wirelength/fingerprint %d/%.4f/%016x, first route %d/%.4f/%016x",
			got.routed, got.wl, got.fp, ref.routed, ref.wl, ref.fp))
	}
	if len(problems) > 0 {
		rs.b.fail("%s: %s", rs.designs[i].Name, strings.Join(problems, "; "))
	}
}

// timeCodec times the codec work of a serve job on design i: decoding the
// design document and encoding the result.
func (rs *routeSet) timeCodec(i int, res *router.Result) {
	t0 := time.Now()
	_, err := codec.DecodeDesign(bytes.NewReader(rs.docs[i]))
	rs.decodeTime += time.Since(t0)
	if err != nil {
		rs.b.fail("%s: decode design: %v", rs.designs[i].Name, err)
		return
	}
	var buf bytes.Buffer
	t1 := time.Now()
	err = codec.EncodeResult(&buf, res)
	rs.encodeTime += time.Since(t1)
	if err != nil {
		rs.b.fail("%s: encode result: %v", rs.designs[i].Name, err)
		return
	}
	rs.resultBytes += buf.Len()
	rs.codecRuns++
}

// totals sums the reference outcomes: routed nets, and the routed
// wirelength and its octilinear lower bound over the routed nets.
func (rs *routeSet) totals() (routed int, wl, lb float64) {
	for i, ref := range rs.ref {
		if ref != nil {
			routed += ref.routed
			wl += rs.quality[i].Actual
			lb += rs.quality[i].LowerBound
		}
	}
	return routed, wl, lb
}

// tracedPass runs pairs of one untraced and one traced iteration — at
// least minPairs, then more until d has passed — alternating which of the
// two goes first, and returns the wall time of each iteration of either
// kind, in seconds.
func (rs *routeSet) tracedPass(tr *memTracer, minPairs int, d time.Duration) (plain, traced []float64) {
	start := time.Now()
	for i := 0; i < minPairs || time.Since(start) < d; i++ {
		if i%2 == 1 {
			traced = append(traced, rs.traced(tr).Seconds())
		}
		plain = append(plain, total(rs.untraced()).Seconds())
		if i%2 == 0 {
			traced = append(traced, rs.traced(tr).Seconds())
		}
	}
	return plain, traced
}

// reportRouteLayers sets the per-layer metrics measured on direct routes:
// router stages and stage-4 outcomes, lattice, mpsc, ctile, lpopt, codec,
// drc, the Go runtime, and the tracing overhead. Counts and stage times
// are per iteration (the designs of rs summed); codec and drc times are
// per design, runtime figures per untraced route.
func (b *bench) reportRouteLayers(rs *routeSet, tr *memTracer, plain, traced []float64) {
	k := float64(len(traced))
	self := tr.selfTimes()
	root := tr.rootTime().Seconds()
	staged := 0.0
	for _, st := range []string{"preprocess", "concurrent", "graph", "sequential", "lp"} {
		s := self["stage:"+st].Seconds()
		staged += s
		b.set(st+".self_s", "s", s/k)
	}
	b.set("sequential.share", "ratio", ratio(self["stage:sequential"].Seconds(), root))
	b.set("stages.coverage", "ratio", ratio(staged, root))

	nets, fallbackExpanded := tr.netStats()
	for _, n := range []string{"concurrent", "corridor", "fallback", "failed"} {
		b.set("nets."+n, "count", float64(nets[n])/k)
	}
	seqNets := nets["corridor"] + nets["fallback"] + nets["failed"]
	b.set("corridor.yield", "ratio", ratio(float64(nets["corridor"]), float64(seqNets)))
	intervals := tr.seqIntervals()
	for _, g := range []string{"corridor", "fallback", "failed"} {
		ms := intervals[g]
		sum := 0.0
		for _, v := range ms {
			sum += v
		}
		b.set("seq.net_ms."+g+".p50", "ms", percentile(ms, 0.50))
		b.set("seq.net_ms."+g+".p95", "ms", percentile(ms, 0.95))
		b.set("seq.net_ms."+g+".sum", "ms", sum/k)
	}

	expanded := tr.distSum("astar.expanded")
	b.set("astar.searches", "count", float64(tr.counts["astar.searches"])/k)
	b.set("astar.failures", "count", float64(tr.counts["astar.failures"])/k)
	b.set("astar.expanded", "count", expanded/k)
	b.set("astar.visited", "count", tr.distSum("astar.visited")/k)
	b.set("astar.expanded.fallback_share", "ratio", ratio(fallbackExpanded, expanded))

	picked := float64(tr.counts["mpsc.chords_picked"])
	b.set("mpsc.chords_picked", "count", picked/k)
	b.set("concurrent.yield", "ratio", ratio(float64(nets["concurrent"]), picked))
	b.set("ctile.tiles", "count", float64(tr.counts["ctile.tiles"])/k)
	b.set("ctile.via_sites", "count", float64(tr.counts["ctile.via_sites"])/k)

	components := 0
	before, after := 0.0, 0.0
	for _, st := range rs.lpStats {
		components += st.Components
		before += st.Before
		after += st.After
	}
	b.set("lp.iterations", "count", float64(tr.counts["lp.iterations"])/k)
	b.set("lp.components", "count", float64(components)/k)
	b.set("lp.violations", "count", float64(tr.counts["lp.violations"])/k)
	b.set("lp.wl_reduction", "ratio", ratio(before-after, before))
	b.set("lpopt.optimize_s", "s", rs.lpoptTime.Seconds()/k)

	n := float64(rs.codecRuns)
	b.set("codec.decode_design_ms", "ms", ratio(rs.decodeTime.Seconds()*1e3, n))
	b.set("codec.encode_result_ms", "ms", ratio(rs.encodeTime.Seconds()*1e3, n))
	b.set("codec.result_bytes", "bytes", ratio(float64(rs.resultBytes), n))
	b.set("drc.check_ms", "ms", ratio(rs.drcTime.Seconds()*1e3, float64(rs.drcChecks)))
	b.set("runtime.alloc_mb", "MiB", ratio(float64(rs.allocBytes)/(1<<20), float64(rs.untracedRoutes)))
	b.set("runtime.gc_cycles", "count", ratio(float64(rs.gcCycles), float64(rs.untracedRoutes)))
	b.set("trace.overhead", "ratio", ratio(median(traced), median(plain))-1)
}
