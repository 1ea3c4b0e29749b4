package lattice

import (
	"math/rand"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
)

// referenceRoute is Route without the goal-side flood: plain A* that
// reports a failure only once it has exhausted the start side or the cost
// cap. It writes req.Stats but reports nothing to the tracer.
func (la *Lattice) referenceRoute(req Request) (path []PathStep, cost float64, ok bool) {
	fi, fj, ok1 := la.NodeAt(req.From)
	ti, tj, ok2 := la.NodeAt(req.To)
	if !ok1 || !ok2 {
		return nil, 0, false
	}
	if req.ViaCost == 0 {
		req.ViaCost = 3 * float64(la.Pitch)
	}
	if req.MaxCost == 0 {
		req.MaxCost = 4*geom.OctDist(req.From, req.To) + 40*float64(la.Pitch)
	}
	layerAllowed := func(l int) bool {
		return req.LayerMask == nil || (l < len(req.LayerMask) && req.LayerMask[l])
	}
	if !layerAllowed(req.FromLayer) || !layerAllowed(req.ToLayer) {
		return nil, 0, false
	}
	ss := la.ensureSearch()
	expanded, visited := 0, 0
	defer func() {
		if req.Stats != nil {
			req.Stats.NodesExpanded = expanded
			req.Stats.NodesVisited = visited
		}
	}()

	goalNode := la.idx(ti, tj)
	isTerminal := func(i, j int) bool {
		return (i == fi && j == fj) || (i == ti && j == tj)
	}
	regionOK := func(l, i, j int) bool {
		return req.RegionMask == nil || req.RegionMask.Allowed(l, i, j) || isTerminal(i, j)
	}
	wi0, wj0, wi1, wj1 := la.SearchWindow(req.From, req.To, req.MaxCost)
	wireOK := func(l, i, j int) bool {
		if req.IgnoreForeign {
			return la.wireOcc[l*la.NX*la.NY+la.idx(i, j)] != hard
		}
		return la.WireFree(l, i, j, req.Net)
	}
	viaOK := func(s, i, j int) bool {
		if req.IgnoreForeign {
			n := la.NX * la.NY
			return la.viaOcc[s*n+la.idx(i, j)] != hard &&
				la.wireOcc[s*n+la.idx(i, j)] != hard &&
				la.wireOcc[(s+1)*n+la.idx(i, j)] != hard
		}
		return la.ViaFree(s, i, j, req.Net)
	}
	h := func(i, j, l int) float64 {
		d := geom.OctDist(la.NodePoint(i, j), req.To)
		dl := l - req.ToLayer
		if dl < 0 {
			dl = -dl
		}
		return d + float64(dl)*req.ViaCost
	}
	relax := func(s int32, d float64, from int32, fpri float64) {
		if ss.epoch[s] != ss.cur || d < ss.dist[s] {
			ss.epoch[s] = ss.cur
			ss.dist[s] = d
			ss.prev[s] = from
			ss.heap.push(fpri, s)
			visited++
		}
	}

	start := la.stateID(req.FromLayer, fi, fj, noDir)
	if !wireOK(req.FromLayer, fi, fj) {
		return nil, 0, false
	}
	relax(start, 0, -1, h(fi, fj, req.FromLayer))
	for !ss.heap.empty() {
		f, s := ss.heap.pop()
		if ss.done[s] == ss.cur {
			continue
		}
		ss.done[s] = ss.cur
		expanded++
		if req.Ctx != nil && expanded%cancelPollPeriod == 0 && req.Ctx.Err() != nil {
			return nil, 0, false
		}
		if f > req.MaxCost {
			return nil, 0, false
		}
		l, i, j, dir := la.unpack(s)
		if l == req.ToLayer && la.idx(i, j) == goalNode {
			return la.rebuild(ss, s), ss.dist[s], true
		}
		d := ss.dist[s]
		for nd, mv := range moves {
			if !turnOK(dir, nd) {
				continue
			}
			ni, nj := i+mv.dx, j+mv.dy
			if ni < wi0 || nj < wj0 || ni > wi1 || nj > wj1 {
				continue
			}
			if !wireOK(l, ni, nj) || !regionOK(l, ni, nj) {
				continue
			}
			if !la.edgeFree(l, i, j, nd, req.Net, req.IgnoreForeign) {
				continue
			}
			step := float64(la.Pitch)
			if mv.diag {
				step *= geom.Sqrt2
			}
			ns := la.stateID(l, ni, nj, nd)
			if ss.done[ns] == ss.cur {
				continue
			}
			nd2 := d + step
			pri := nd2 + h(ni, nj, l)
			if pri > req.MaxCost {
				continue
			}
			relax(ns, nd2, s, pri)
		}
		for _, dl := range []int{-1, 1} {
			nl := l + dl
			if nl < 0 || nl >= la.Layers || !layerAllowed(nl) {
				continue
			}
			slab := l
			if nl < l {
				slab = nl
			}
			if !viaOK(slab, i, j) || !regionOK(nl, i, j) {
				continue
			}
			ns := la.stateID(nl, i, j, noDir)
			if ss.done[ns] == ss.cur {
				continue
			}
			nd2 := d + req.ViaCost
			pri := nd2 + h(i, j, nl)
			if pri > req.MaxCost {
				continue
			}
			relax(ns, nd2, s, pri)
		}
	}
	return nil, 0, false
}

// refuteSide is the side, in nodes, of the random lattices (pitch 12).
const refuteSide = 60

// ring is a closed square of foreign wire or obstacles, radius r nodes
// around node (ci, cj), on the layers set in on.
type ring struct {
	ci, cj, r int
	on        []bool
}

// randomRefuteLattice returns a seeded random 60×60 lattice of 1–4
// layers: random obstacles, closed obstacle rings, foreign wires, closed
// foreign-wire rings and foreign vias (nets 1–5). Rings sit on every
// layer or on a random subset of them.
func randomRefuteLattice(t *testing.T, rng *rand.Rand) (*Lattice, []ring) {
	t.Helper()
	const pitch = 12
	w := int64(refuteSide-1) * pitch
	d := &design.Design{
		Name:       "refute",
		Outline:    geom.RectWH(0, 0, w, w),
		WireLayers: 1 + rng.Intn(4),
		Rules:      design.Rules{Spacing: 5, WireWidth: 4, ViaWidth: 16},
	}
	node := func() (int, int) { return rng.Intn(refuteSide), rng.Intn(refuteSide) }
	pt := func(i, j int) geom.Point { return geom.Pt(int64(i)*pitch, int64(j)*pitch) }
	layers := func() []bool {
		on := make([]bool, d.WireLayers)
		every := rng.Intn(2) == 0
		for l := range on {
			on[l] = every || rng.Intn(2) == 0
		}
		return on
	}
	for k := rng.Intn(12); k > 0; k-- {
		i, j := node()
		d.Obstacles = append(d.Obstacles, design.Obstacle{
			Layer: rng.Intn(d.WireLayers),
			Box:   geom.RectWH(int64(i)*pitch, int64(j)*pitch, (1+rng.Int63n(8))*pitch, (1+rng.Int63n(8))*pitch),
		})
	}
	var rings []ring
	newRing := func() ring {
		rg := ring{r: 3 + rng.Intn(5), on: layers()}
		rg.ci = rg.r + rng.Intn(refuteSide-2*rg.r)
		rg.cj = rg.r + rng.Intn(refuteSide-2*rg.r)
		rings = append(rings, rg)
		return rg
	}
	for k := rng.Intn(3); k > 0; k-- {
		rg := newRing()
		x0, y0 := int64(rg.ci-rg.r)*pitch, int64(rg.cj-rg.r)*pitch
		side := int64(2*rg.r) * pitch
		for l, on := range rg.on {
			if !on {
				continue
			}
			for _, box := range []geom.Rect{
				geom.RectWH(x0, y0, side, pitch), geom.RectWH(x0, y0+side-pitch, side, pitch),
				geom.RectWH(x0, y0, pitch, side), geom.RectWH(x0+side-pitch, y0, pitch, side),
			} {
				d.Obstacles = append(d.Obstacles, design.Obstacle{Layer: l, Box: box})
			}
		}
	}
	la, err := New(d, pitch)
	if err != nil {
		t.Fatal(err)
	}
	dirs := [][2]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}}
	for k := rng.Intn(10); k > 0; k-- {
		i, j := node()
		dir := dirs[rng.Intn(len(dirs))]
		n := 2 + rng.Intn(30)
		ei, ej := i+dir[0]*n, j+dir[1]*n
		if ei < 0 || ej < 0 || ei >= refuteSide || ej >= refuteSide {
			continue
		}
		l := rng.Intn(d.WireLayers)
		la.Commit([]PathStep{{Layer: l, Pt: pt(i, j)}, {Layer: l, Pt: pt(ei, ej)}}, 1+rng.Intn(5))
	}
	for k := rng.Intn(3); k > 0; k-- {
		rg := newRing()
		net := 1 + rng.Intn(5)
		for l, on := range rg.on {
			if !on {
				continue
			}
			var sq []PathStep
			for _, c := range [][2]int{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}, {-1, -1}} {
				sq = append(sq, PathStep{Layer: l, Pt: pt(rg.ci+c[0]*rg.r, rg.cj+c[1]*rg.r)})
			}
			la.Commit(sq, net)
		}
	}
	if d.WireLayers > 1 {
		for k := rng.Intn(8); k > 0; k-- {
			i, j := node()
			la.CommitViaAt(rng.Intn(d.WireLayers-1), pt(i, j), 1+rng.Intn(5))
		}
	}
	return la, rings
}

// randomRefuteRequest returns a seeded random request on la. Terminals sit
// anywhere, inside a ring, or at the same (i, j) on two layers; region
// masks are absent, random rectangles, a full-height band cut between
// the terminals, or empty (terminals only); some searches ignore foreign
// claims, cap the cost near the direct distance, or mask layers.
func randomRefuteRequest(rng *rand.Rand, la *Lattice, rings []ring) Request {
	node := func() (int, int) { return rng.Intn(la.NX), rng.Intn(la.NY) }
	fi, fj := node()
	ti, tj := node()
	switch k := rng.Intn(5); {
	case k == 0 && len(rings) > 0: // goal or start inside a ring
		rg := rings[rng.Intn(len(rings))]
		ci, cj := rg.ci+rng.Intn(2*rg.r-3)-(rg.r-2), rg.cj+rng.Intn(2*rg.r-3)-(rg.r-2)
		if rng.Intn(2) == 0 {
			ti, tj = ci, cj
		} else {
			fi, fj = ci, cj
		}
	case k == 1: // same (i, j), on two layers unless both draw the same one
		ti, tj = fi, fj
	}
	req := Request{
		Net:       rng.Intn(6),
		From:      la.NodePoint(fi, fj),
		To:        la.NodePoint(ti, tj),
		FromLayer: rng.Intn(la.Layers),
		ToLayer:   rng.Intn(la.Layers),
	}
	if rng.Intn(5) == 0 {
		req.IgnoreForeign = true
	}
	if rng.Intn(6) == 0 {
		direct := geom.OctDist(req.From, req.To)
		req.MaxCost = direct*(1+rng.Float64()/2) + float64(rng.Intn(3))*3*float64(la.Pitch) + 1
	}
	if rng.Intn(5) == 0 {
		req.LayerMask = make([]bool, rng.Intn(la.Layers+1))
		for l := range req.LayerMask {
			req.LayerMask[l] = rng.Intn(4) != 0
		}
	}
	switch rng.Intn(6) {
	case 0: // random rectangles
		m := la.NewRegionMask()
		for k := 1 + rng.Intn(4); k > 0; k-- {
			i0, j0 := node()
			m.AllowWindow(rng.Intn(la.Layers), i0, j0, i0+rng.Intn(la.NX), j0+rng.Intn(la.NY))
		}
		req.RegionMask = m
	case 1: // everything but a full-height band between the terminals
		m := la.NewRegionMask()
		lo, hi := min(fi, ti), max(fi, ti)
		cut, width := lo+rng.Intn(hi-lo+1), rng.Intn(3)
		for l := 0; l < la.Layers; l++ {
			m.AllowWindow(l, 0, 0, la.NX-1, la.NY-1)
			for j := 0; j < la.NY; j++ {
				m.clearRun(l, j, cut, cut+width)
			}
		}
		req.RegionMask = m
	case 2: // terminals only
		req.RegionMask = la.NewRegionMask()
	}
	return req
}

// TestRouteMatchesReference holds Route's goal-side refutation to the
// reference A*: on seeded random lattices every request must return the
// reference's path, cost and outcome. A search the flood did not refute
// must also report the reference's effort; a refuted one may only expand
// fewer states. Both the refuted and the routed paths must stay well
// exercised.
func TestRouteMatchesReference(t *testing.T) {
	c := obs.NewCollector()
	var refuted, routed, capped int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		la, rings := randomRefuteLattice(t, rng)
		la.SetTracer(c)
		for k := 0; k < 16; k++ {
			req := randomRefuteRequest(rng, la, rings)
			var got, want SearchStats
			req.Stats = &want
			wantPath, wantCost, wantOK := la.referenceRoute(req)
			req.Stats = &got
			before := c.Counter("astar.refuted")
			path, cost, ok := la.Route(req)
			wasRefuted := c.Counter("astar.refuted") > before
			if ok != wantOK || cost != wantCost || !reflect.DeepEqual(path, wantPath) {
				t.Fatalf("seed %d request %d %+v: got (%v, %v, %v), reference (%v, %v, %v)",
					seed, k, req, path, cost, ok, wantPath, wantCost, wantOK)
			}
			switch {
			case wasRefuted:
				refuted++
				if got.NodesExpanded > want.NodesExpanded {
					t.Errorf("seed %d request %d: refuted after %d expansions, reference %d",
						seed, k, got.NodesExpanded, want.NodesExpanded)
				}
			case got != want:
				t.Errorf("seed %d request %d: stats %+v, reference %+v", seed, k, got, want)
			}
			if ok {
				routed++
			} else if !wasRefuted && req.MaxCost > 0 && want.NodesExpanded > 0 {
				capped++
			}
		}
	}
	t.Logf("%d refuted, %d routed, %d other failures under a cost cap", refuted, routed, capped)
	if refuted < 100 || routed < 100 {
		t.Fatalf("%d refuted and %d routed searches, want at least 100 of each", refuted, routed)
	}
}
