// Package baseline implements Lin-ext, the comparison flow of the paper's
// evaluation: the concurrent routing method of Lin et al. (ICCAD'16) —
// a per-chip concentric-circle layer assignment without congestion
// weighting — extended with A*-search sequential routing. Its two
// structural limitations (reproduced faithfully) are:
//
//   - no flexible vias: every net is routed entirely within one wire
//     layer, reaching it through fixed via stacks that punch through all
//     RDLs at the pad positions (committed up front for every net pad);
//   - the concentric-circle model considers only the nets around one chip
//     at a time and ignores fan-out congestion.
package baseline

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/lattice"
	"rdlroute/internal/layout"
	"rdlroute/internal/mpsc"
	"rdlroute/internal/obs"
)

// Options tune the baseline.
type Options struct {
	ViaCost float64

	// Tracer, when non-nil and enabled, receives the baseline's stage
	// spans (linext-assign / linext-concurrent / linext-sequential), the
	// same per-net "net.route" events as the main flow, and the lattice's
	// astar.* counters. Nil means the zero-overhead Nop tracer.
	Tracer obs.Tracer
}

// DefaultOptions returns the configuration used in the benchmark harness.
func DefaultOptions() Options {
	return Options{}
}

// Result mirrors the router's metrics for the baseline flow.
type Result struct {
	Layout           *layout.Layout
	Routability      float64
	Wirelength       float64
	RoutedNets       int
	TotalNets        int
	ConcurrentRouted int
	SequentialRouted int
	Runtime          time.Duration
}

// Route runs Lin-ext on the design.
func Route(d *design.Design, opts Options) (*Result, error) {
	return RouteContext(context.Background(), d, opts)
}

// RouteContext is Route with cancellation: the layer-assignment DP and
// every per-net A* search poll ctx, and a fired deadline surfaces as an
// error wrapping context.Canceled or context.DeadlineExceeded.
func RouteContext(ctx context.Context, d *design.Design, opts Options) (*Result, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	tr := obs.Or(opts.Tracer)
	la, err := lattice.New(d, design.Grid)
	if err != nil {
		return nil, err
	}
	la.SetTracer(tr)
	lay := layout.New(d)
	res := &Result{Layout: lay, TotalNets: len(d.Nets)}

	// Fixed via stacks at every net pad, punching down through the RDLs as
	// far as legal (a stack stops where it would collide with a bump pad
	// or an obstacle — the physical structure the previous works assume).
	reach := map[design.PadRef]int{}
	if d.WireLayers > 1 {
		for ni, n := range d.Nets {
			for _, ref := range []design.PadRef{n.P1, n.P2} {
				if ref.Kind != design.IOKind {
					continue
				}
				c := d.IOPads[ref.Index].Center
				r := 0
				for r < d.WireLayers-1 && la.StackFree(c, r, r+1, ni) {
					la.CommitStack(c, r, r+1, ni)
					lay.AddStack(ni, c, r, r+1)
					r++
				}
				reach[ref] = r
			}
		}
	}
	netReach := func(ni int) int {
		n := d.Nets[ni]
		r := d.WireLayers - 1
		for _, ref := range []design.PadRef{n.P1, n.P2} {
			if ref.Kind != design.IOKind {
				continue // bump pads live on the bottom layer directly
			}
			rr, ok := reach[ref]
			if !ok {
				return 0
			}
			if rr < r {
				r = rr
			}
		}
		return r
	}

	end := obs.Stage(tr, "linext-assign", obs.String("design", d.Name))
	assigned, err := concentricAssign(ctx, d, tr)
	end()
	if err != nil {
		return nil, err
	}

	// Concurrent stage: route each layer's assignment, chip by chip.
	end = obs.Stage(tr, "linext-concurrent")
	routedSet := map[int]bool{}
	for l := 0; l < d.WireLayers; l++ {
		for _, ni := range assigned[l] {
			if err := ctxWrap(ctx); err != nil {
				return nil, err
			}
			if routedSet[ni] {
				continue
			}
			if l > netReach(ni) {
				continue // pad stacks do not reach this layer
			}
			if routeSingleLayer(ctx, d, la, lay, ni, l, opts, tr, "linext-concurrent") {
				routedSet[ni] = true
				res.ConcurrentRouted++
			}
		}
	}
	end(obs.Int("routed", res.ConcurrentRouted))

	// Sequential stage: remaining nets try every layer in turn.
	end = obs.Stage(tr, "linext-sequential")
	var rest []int
	for ni := range d.Nets {
		if !routedSet[ni] {
			rest = append(rest, ni)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		di := directLen(d, rest[i])
		dj := directLen(d, rest[j])
		return di < dj
	})
	for _, ni := range rest {
		if err := ctxWrap(ctx); err != nil {
			return nil, err
		}
		for l := 0; l <= netReach(ni) && l < d.WireLayers; l++ {
			if routeSingleLayer(ctx, d, la, lay, ni, l, opts, tr, "linext-sequential") {
				routedSet[ni] = true
				res.SequentialRouted++
				break
			}
		}
	}
	end(obs.Int("routed", res.SequentialRouted))

	res.RoutedNets = lay.RoutedCount()
	res.Routability = lay.Routability()
	res.Wirelength = lay.Wirelength()
	res.Runtime = time.Since(start)
	if tr.Enabled() {
		tr.Count("linext.nets_total", int64(res.TotalNets))
		tr.Count("linext.nets_routed", int64(res.RoutedNets))
		tr.Event("route.done",
			obs.String("design", d.Name),
			obs.String("flow", "linext"),
			obs.Float("routability", res.Routability),
			obs.Float("wirelength", res.Wirelength),
			obs.Float("runtime_ms", float64(res.Runtime.Nanoseconds())/1e6))
	}
	return res, nil
}

// ctxWrap returns ctx's error wrapped for the baseline flow, or nil.
func ctxWrap(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	return nil
}

func directLen(d *design.Design, ni int) float64 {
	n := d.Nets[ni]
	return geom.OctDist(d.PadCenter(n.P1), d.PadCenter(n.P2))
}

// routeSingleLayer routes a net entirely on one wire layer (its pads reach
// the layer through their fixed stacks). Chip-to-board nets terminate on a
// bump pad and therefore only route on the bottom layer.
func routeSingleLayer(ctx context.Context, d *design.Design, la *lattice.Lattice, lay *layout.Layout, ni, l int, opts Options, tr obs.Tracer, stage string) bool {
	n := d.Nets[ni]
	if n.P1.Kind != design.IOKind {
		return false
	}
	if n.P2.Kind == design.BumpKind && l != d.WireLayers-1 {
		return false
	}
	from := d.IOPads[n.P1.Index].Center
	to := d.PadCenter(n.P2)
	mask := make([]bool, d.WireLayers)
	mask[l] = true
	var st lattice.SearchStats
	req := lattice.Request{
		Net: ni, From: from, To: to,
		FromLayer: l, ToLayer: l,
		LayerMask: mask, ViaCost: opts.ViaCost,
		Ctx: ctx,
	}
	if tr.Enabled() {
		req.Stats = &st
	}
	path, _, ok := la.Route(req)
	if !ok {
		return false
	}
	la.Commit(path, ni)
	lay.AddPath(ni, path)
	lay.MarkRouted(ni)
	if tr.Enabled() {
		wl := 0.0
		for k := 0; k+1 < len(path); k++ {
			wl += geom.OctDist(path[k].Pt, path[k+1].Pt)
		}
		tr.Event("net.route",
			obs.Int("net", ni),
			obs.String("stage", stage),
			obs.String("mode", "layer"),
			obs.Int("layer", l),
			obs.String("outcome", "routed"),
			obs.Int("expanded", st.NodesExpanded),
			obs.Int("visited", st.NodesVisited),
			obs.Int("steps", len(path)),
			obs.Float("wl", wl))
	}
	return true
}

// concentricAssign performs the per-chip concentric-circle layer
// assignment: for each wire layer, walk the chips and pick a maximum
// planar subset of that chip's unassigned nets on a circular model ordered
// by angle around the chip center (unweighted — Lin's model has no
// congestion term). The per-chip incident-net scan (which nets touch
// which chip, at what angles) does not depend on the evolving done set,
// so it is precomputed once; each pick of the DP walk over layers × chips
// feeds the next model.
func concentricAssign(ctx context.Context, d *design.Design, tr obs.Tracer) ([][]int, error) {
	incident := make([][]chipEv, len(d.Chips))
	for chip := range d.Chips {
		center := d.Chips[chip].Box.Center()
		var evs []chipEv
		for ni, n := range d.Nets {
			if !n.InterChip() {
				continue
			}
			p1 := d.IOPads[n.P1.Index]
			p2 := d.IOPads[n.P2.Index]
			if p1.Chip != chip && p2.Chip != chip {
				continue
			}
			// Endpoint angles on the chip's concentric circle: the pad on
			// this chip by its own angle, the far pad by its direction from
			// the chip center.
			evs = append(evs, chipEv{ni, angleOf(center, p1.Center), len(evs)})
			evs = append(evs, chipEv{ni, angleOf(center, p2.Center), len(evs)})
		}
		incident[chip] = evs
	}
	assigned := make([][]int, d.WireLayers)
	done := map[int]bool{}
	for l := 0; l < d.WireLayers; l++ {
		for chip := range d.Chips {
			picked, err := planarAroundChip(ctx, incident[chip], done, tr, l, chip)
			if err != nil {
				return nil, err
			}
			for _, ni := range picked {
				done[ni] = true
				assigned[l] = append(assigned[l], ni)
			}
		}
	}
	return assigned, nil
}

// chipEv is one net endpoint on a chip's concentric circle.
type chipEv struct {
	net   int
	angle float64
	seq   int
}

// planarAroundChip builds the chip's circular model from its precomputed
// incident endpoints and returns a maximum planar subset of its incident
// unassigned nets.
func planarAroundChip(ctx context.Context, all []chipEv, done map[int]bool, tr obs.Tracer, layer, chip int) ([]int, error) {
	var evs []chipEv
	for _, e := range all {
		if !done[e.net] {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		return nil, nil
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].angle != evs[j].angle {
			return evs[i].angle < evs[j].angle
		}
		return evs[i].seq < evs[j].seq
	})
	pos := map[int][]int{}
	for i, e := range evs {
		pos[e.net] = append(pos[e.net], i)
	}
	var chords []mpsc.Chord
	for net, ps := range pos {
		if len(ps) != 2 {
			continue
		}
		chords = append(chords, mpsc.Chord{A: ps[0], B: ps[1], W: 1, Tag: net})
	}
	sort.Slice(chords, func(i, j int) bool { return chords[i].Tag < chords[j].Tag })
	picked, _, err := mpsc.MaxPlanarSubsetTracedCtx(ctx, len(evs), chords, tr,
		obs.Int("layer", layer), obs.Int("chip", chip))
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var out []int
	for _, ci := range picked {
		out = append(out, chords[ci].Tag)
	}
	sort.Ints(out)
	return out, nil
}

func angleOf(p, q geom.Point) float64 {
	return math.Atan2(float64(q.Y-p.Y), float64(q.X-p.X))
}
