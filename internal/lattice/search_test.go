package lattice

import (
	"math/rand"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
)

// turnOK is the turn rule turnMoves tabulates: moving in direction nd is
// legal after arriving in direction d when the turn is straight, 45° or
// 90° (no 135° turns, no U-turns), and always after noDir.
func turnOK(d, nd int) bool {
	if d == noDir {
		return true
	}
	diff := nd - d
	if diff < 0 {
		diff = -diff
	}
	if diff > 4 {
		diff = 8 - diff
	}
	return diff <= 2
}

// TestTurnMovesMatchTurnRule: each turnMoves list holds exactly the moves
// turnOK allows, in ascending direction order.
func TestTurnMovesMatchTurnRule(t *testing.T) {
	for d := 0; d <= noDir; d++ {
		var want []int
		for nd := range moves {
			if turnOK(d, nd) {
				want = append(want, nd)
			}
		}
		if !reflect.DeepEqual(turnMoves[d], want) {
			t.Errorf("turnMoves[%d] = %v, want %v", d, turnMoves[d], want)
		}
	}
}

// swapHeap is the reference binary min-heap: the textbook sifts that swap
// an entry with its parent or smaller child, which pqueue's hole sifts
// must match comparison for comparison.
type swapHeap struct{ e []pqEntry }

func (h *swapHeap) push(p float64, id int32) {
	h.e = append(h.e, pqEntry{p, id})
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.e[parent].pri <= h.e[i].pri {
			break
		}
		h.e[i], h.e[parent] = h.e[parent], h.e[i]
		i = parent
	}
}

func (h *swapHeap) pop() (float64, int32) {
	top := h.e[0]
	n := len(h.e) - 1
	h.e[0] = h.e[n]
	h.e = h.e[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.e[l].pri < h.e[m].pri {
			m = l
		}
		if r < n && h.e[r].pri < h.e[m].pri {
			m = r
		}
		if m == i {
			break
		}
		h.e[i], h.e[m] = h.e[m], h.e[i]
		i = m
	}
	return top.pri, top.id
}

// TestPQueueMatchesSwapHeap runs seeded random push/pop interleavings on
// pqueue and swapHeap with priorities drawn from one to four values, so
// ties dominate. Every pop must return the same (pri, id), and after
// every operation the two backing arrays must be equal entry for entry.
func TestPQueueMatchesSwapHeap(t *testing.T) {
	var pops, ties int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h pqueue
		var ref swapHeap
		values := 1 + rng.Intn(4)
		pushShare := 0.3 + 0.4*rng.Float64()
		id := int32(0)
		for op := 0; op < 600; op++ {
			if len(ref.e) == 0 || (op < 500 && rng.Float64() < pushShare) {
				p := float64(rng.Intn(values))
				h.push(p, id)
				ref.push(p, id)
				id++
			} else {
				gp, gid := h.pop()
				wp, wid := ref.pop()
				if gp != wp || gid != wid {
					t.Fatalf("seed %d op %d: pop (%v, %d), swap heap (%v, %d)", seed, op, gp, gid, wp, wid)
				}
				pops++
				if len(ref.e) > 0 && ref.e[0].pri == wp {
					ties++
				}
			}
			if len(h.e) != len(ref.e) {
				t.Fatalf("seed %d op %d: %d entries, swap heap %d", seed, op, len(h.e), len(ref.e))
			}
			for k := range ref.e {
				if h.e[k] != ref.e[k] {
					t.Fatalf("seed %d op %d: entry %d is %+v, swap heap %+v", seed, op, k, h.e[k], ref.e[k])
				}
			}
		}
	}
	if ties < pops/2 {
		t.Fatalf("%d of %d pops left a tie at the root, want at least half", ties, pops)
	}
}

// refSearch holds the reference A*'s buffers, sharing nothing with
// searchState: four parallel arrays per state (dist, prev, epoch, done)
// and the swap heap.
type refSearch struct {
	dist  []float64
	prev  []int32
	epoch []uint32
	done  []uint32
	cur   uint32
	heap  swapHeap
}

func newRefSearch(la *Lattice) *refSearch {
	n := la.Layers * la.NX * la.NY * 9
	return &refSearch{
		dist:  make([]float64, n),
		prev:  make([]int32, n),
		epoch: make([]uint32, n),
		done:  make([]uint32, n),
	}
}

// referenceRoute is Route without the goal-side flood: plain A* that
// reports a failure only once it has exhausted the start side or the cost
// cap. It shares no search state with Route: its buffers are rs, its
// moves test turnOK and edgeFree, and it walks node coordinates rather
// than index tables. It writes req.Stats but reports nothing to the
// tracer.
func (la *Lattice) referenceRoute(rs *refSearch, req Request) (path []PathStep, cost float64, ok bool) {
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
	rs.cur++
	rs.heap.e = rs.heap.e[:0]
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
		if rs.epoch[s] != rs.cur || d < rs.dist[s] {
			rs.epoch[s] = rs.cur
			rs.dist[s] = d
			rs.prev[s] = from
			rs.heap.push(fpri, s)
			visited++
		}
	}

	start := la.stateID(req.FromLayer, fi, fj, noDir)
	if !wireOK(req.FromLayer, fi, fj) {
		return nil, 0, false
	}
	relax(start, 0, -1, h(fi, fj, req.FromLayer))
	for len(rs.heap.e) > 0 {
		f, s := rs.heap.pop()
		if rs.done[s] == rs.cur {
			continue
		}
		rs.done[s] = rs.cur
		expanded++
		if req.Ctx != nil && expanded%cancelPollPeriod == 0 && req.Ctx.Err() != nil {
			return nil, 0, false
		}
		if f > req.MaxCost {
			return nil, 0, false
		}
		l, i, j, dir := la.unpack(s)
		if l == req.ToLayer && la.idx(i, j) == goalNode {
			var raw []PathStep
			for cur := s; cur >= 0; cur = rs.prev[cur] {
				l, i, j, _ := la.unpack(cur)
				raw = append(raw, PathStep{Layer: l, Pt: la.NodePoint(i, j)})
			}
			return compactPath(raw), rs.dist[s], true
		}
		d := rs.dist[s]
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
			if rs.done[ns] == rs.cur {
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
			if rs.done[ns] == rs.cur {
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

// TestRouteMatchesReference holds Route's goal-side refutation, state
// records, hole-sift heap and move tables to the reference A*: on seeded
// random lattices every request must return the reference's path, cost
// and outcome. A search the flood did not refute must also report the
// reference's effort; a refuted one may only expand fewer states. Both
// the refuted and the routed paths must stay well exercised.
func TestRouteMatchesReference(t *testing.T) {
	c := obs.NewCollector()
	var refuted, routed, capped int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		la, rings := randomRefuteLattice(t, rng)
		la.SetTracer(c)
		rs := newRefSearch(la)
		for k := 0; k < 16; k++ {
			req := randomRefuteRequest(rng, la, rings)
			var got, want SearchStats
			req.Stats = &want
			wantPath, wantCost, wantOK := la.referenceRoute(rs, req)
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
