package lattice

import (
	"context"
	"math"

	"rdlroute/internal/geom"
)

// The eight compass moves: index is the direction id used in search state.
var moves = [8]struct {
	dx, dy int
	diag   bool
}{
	{1, 0, false}, {1, 1, true}, {0, 1, false}, {-1, 1, true},
	{-1, 0, false}, {-1, -1, true}, {0, -1, false}, {1, -1, true},
}

// noDir is the direction id of a state with no incoming direction
// (search start or just after a via).
const noDir = 8

// turnOK reports whether moving in direction nd is legal after arriving in
// direction d: straight, 45° or 90° turns only (no 135° turns, no U-turns).
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

// Request describes one net's routing query.
type Request struct {
	Net      int
	From, To geom.Point // must be lattice nodes
	// FromLayer and ToLayer are the wire layers of the two terminals.
	FromLayer, ToLayer int
	// LayerMask, when non-nil, restricts which wire layers may carry wire;
	// vias may only join two allowed layers.
	LayerMask []bool
	// RegionMask, when non-nil, restricts wire nodes to the rasterized
	// region (one bit test per probe). Terminal nodes are always allowed.
	RegionMask *RegionMask
	// ViaCost is the cost of one layer change (default 3·pitch).
	ViaCost float64
	// MaxCost aborts the search when the best reachable cost exceeds it
	// (default 4·direct + 40·pitch).
	MaxCost float64
	// IgnoreForeign treats other nets' wire and via claims as free (hard
	// blockages still block): a ghost search used by rip-up planning to
	// find which nets stand in the way.
	IgnoreForeign bool
	// Stats, when non-nil, receives the search-effort counters of this
	// call (nodes expanded/visited), whether or not a path was found.
	Stats *SearchStats
	// Ctx, when non-nil, makes the search cancellable: the expansion loop
	// polls it every cancelPollPeriod pops and gives up (ok=false) once the
	// context is done. The lattice is never mutated by a search, so an
	// aborted search leaves no partial state behind; callers distinguish
	// cancellation from unroutability by checking Ctx.Err() afterwards.
	Ctx context.Context
}

// cancelPollPeriod is how many expansions pass between Request.Ctx polls:
// frequent enough that a deadlined search aborts within microseconds, rare
// enough that the atomic load inside Context.Err stays off the profile.
const cancelPollPeriod = 512

// SearchStats reports one A* search's effort.
type SearchStats struct {
	// NodesExpanded counts states popped from the frontier and finalized.
	NodesExpanded int
	// NodesVisited counts state relaxations (frontier pushes).
	NodesVisited int
}

// SearchWindow returns the inclusive node-index window that a Route call
// with these terminals and cost budget can ever usefully expand. For a
// node offset m beyond the terminals' bounding box on one axis, both the
// path cost from the start and the octilinear heuristic to the goal are
// ≥ m, so f ≥ 2m + axis-gap; the window is sized so that every outside
// node has f > maxCost and would be discarded anyway. maxCost ≤ 0 means
// the Route default (4·direct + 40·pitch). Callers that rasterize a
// RegionMask use the same window so mask and search clipping agree.
func (la *Lattice) SearchWindow(from, to geom.Point, maxCost float64) (i0, j0, i1, j1 int) {
	if maxCost <= 0 {
		maxCost = 4*geom.OctDist(from, to) + 40*float64(la.Pitch)
	}
	slack := func(gap int64) int64 {
		s := (maxCost - float64(gap)) / 2
		if s < 0 {
			s = 0
		}
		return int64(s) + 2*la.Pitch // safety margin over the exact bound
	}
	dx := geom.Abs64(from.X - to.X)
	dy := geom.Abs64(from.Y - to.Y)
	mx, my := slack(dx), slack(dy)
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	i0 = clamp(int((geom.Min64(from.X, to.X)-mx-la.X0)/la.Pitch)-1, la.NX-1)
	i1 = clamp(int((geom.Max64(from.X, to.X)+mx-la.X0)/la.Pitch)+1, la.NX-1)
	j0 = clamp(int((geom.Min64(from.Y, to.Y)-my-la.Y0)/la.Pitch)-1, la.NY-1)
	j1 = clamp(int((geom.Max64(from.Y, to.Y)+my-la.Y0)/la.Pitch)+1, la.NY-1)
	return
}

// recordSearch publishes one search's effort to the caller and the
// attached tracer: A* states expanded and visited, and the nodes the
// goal-side flood took off its stack; refuted marks a search the flood
// ended.
func (la *Lattice) recordSearch(req *Request, expanded, visited, flooded int, ok, refuted bool) {
	if req.Stats != nil {
		req.Stats.NodesExpanded = expanded
		req.Stats.NodesVisited = visited
	}
	if la.tr != nil {
		la.tr.Count("astar.searches", 1)
		if !ok {
			la.tr.Count("astar.failures", 1)
		}
		if refuted {
			la.tr.Count("astar.refuted", 1)
		}
		la.tr.Count("astar.flood_nodes", int64(flooded))
		la.tr.Observe("astar.expanded", float64(expanded))
		la.tr.Observe("astar.visited", float64(visited))
	}
}

// searchState holds reusable A* buffers (epoch-stamped).
type searchState struct {
	dist  []float64
	prev  []int32
	epoch []uint32
	done  []uint32
	cur   uint32
	heap  pqueue
	// mark holds one stamp per lattice node for the goal-side flood:
	// cur<<1 once A* has expanded the node, cur<<1|1 once the flood has
	// reached it. stack is the flood's to-do list of node indices.
	mark  []uint32
	stack []int32
}

// pqEntry keeps priority and state id adjacent so each heap sift touches
// one cache line per node instead of two parallel arrays.
type pqEntry struct {
	pri float64
	id  int32
}

type pqueue struct {
	e []pqEntry
}

func (h *pqueue) reset() { h.e = h.e[:0] }

func (h *pqueue) push(p float64, id int32) {
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

func (h *pqueue) pop() (float64, int32) {
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

func (h *pqueue) empty() bool { return len(h.e) == 0 }

// stateID packs (layer, j, i, dir) into an int32.
func (la *Lattice) stateID(l, i, j, dir int) int32 {
	return int32(la.nodeID(l, i, j)*9 + dir)
}

// nodeID packs (layer, j, i): the index of a node in the occupancy slabs
// and in searchState.mark.
func (la *Lattice) nodeID(l, i, j int) int {
	return (l*la.NY+j)*la.NX + i
}

func (la *Lattice) unpack(s int32) (l, i, j, dir int) {
	dir = int(s % 9)
	s /= 9
	i = int(s) % la.NX
	s /= int32(la.NX)
	j = int(s) % la.NY
	l = int(s) / la.NY
	return
}

func (la *Lattice) ensureSearch() *searchState {
	nodes := la.Layers * la.NX * la.NY
	n := nodes * 9
	// Fresh buffers also before cur<<1 would wrap onto stamps that
	// earlier searches left in mark.
	if la.search == nil || len(la.search.dist) < n || la.search.cur == math.MaxUint32>>1 {
		la.search = &searchState{
			dist:  make([]float64, n),
			prev:  make([]int32, n),
			epoch: make([]uint32, n),
			done:  make([]uint32, n),
			mark:  make([]uint32, nodes),
		}
	}
	la.search.cur++
	la.search.heap.reset()
	la.search.stack = la.search.stack[:0]
	return la.search
}

// moveRules holds what one search's moves must respect besides the turn
// rule and the cost cap: the search window, the layer and region masks,
// and the net's right to the wire, edge and via space it enters. A* and
// the goal-side flood test their moves with the same methods.
type moveRules struct {
	la  *Lattice
	req *Request
	// own is the net's owner code; ignore admits every claim but hard
	// ones (Request.IgnoreForeign).
	own    int32
	ignore bool
	// Terminal nodes: exempt from the region mask on every layer.
	fi, fj, ti, tj int
	// Search window: nodes outside it provably have f > MaxCost (each
	// axis offset is a lower bound on both the cost so far and the
	// remaining heuristic), so clipping expansion to it cannot change the
	// search outcome — it only stops the frontier from flooding the whole
	// lattice on hard or unroutable nets.
	wi0, wj0, wi1, wj1 int
}

func (r *moveRules) layerOK(l int) bool {
	return r.req.LayerMask == nil || (l < len(r.req.LayerMask) && r.req.LayerMask[l])
}

func (r *moveRules) inWindow(i, j int) bool {
	return i >= r.wi0 && j >= r.wj0 && i <= r.wi1 && j <= r.wj1
}

func (r *moveRules) regionOK(l, i, j int) bool {
	return r.req.RegionMask == nil || r.req.RegionMask.Allowed(l, i, j) ||
		(i == r.fi && j == r.fj) || (i == r.ti && j == r.tj)
}

// admits reports whether the net may use space claimed by owner o: free
// or its own (passableFor), or for an IgnoreForeign search, anything but
// hard.
func (r *moveRules) admits(o int32) bool {
	return o == free || o == r.own || (r.ignore && o != hard)
}

// wireOK reports whether the wire space of node (l, i, j) admits the net.
func (r *moveRules) wireOK(l, i, j int) bool {
	return r.admits(r.la.wireOcc[r.la.nodeID(l, i, j)])
}

// viaOK reports whether a via on slab s at node (i, j) admits the net:
// its via space and the wire space on both layers it joins (ViaFree).
func (r *moveRules) viaOK(s, i, j int) bool {
	la := r.la
	k := la.nodeID(s, i, j)
	return r.admits(la.viaOcc[k]) && r.admits(la.wireOcc[k]) && r.admits(la.wireOcc[k+la.NX*la.NY])
}

// Route finds a DRC-clean path for the request, or ok=false. The returned
// path is a sequence of steps; consecutive same-layer steps with collinear
// direction are merged into maximal segments. A request whose terminals
// are off-lattice or on a disallowed layer is rejected before any search
// runs and reports no effort; every search that runs reports its effort
// to req.Stats and the attached tracer.
//
// Beside A*, a flood fill from the goal walks the goal's component of the
// relaxed move graph — A*'s moves without the turn rule and the cost cap
// — one node per A* expansion. If it exhausts the component before
// meeting A*, the goal is disconnected from the start and Route returns
// the failure the full search would reach (DESIGN.md §5, "Goal-side
// refutation").
func (la *Lattice) Route(req Request) (path []PathStep, cost float64, ok bool) {
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
	r := moveRules{
		la: la, req: &req, own: int32(req.Net) + 1, ignore: req.IgnoreForeign,
		fi: fi, fj: fj, ti: ti, tj: tj,
	}
	if !r.layerOK(req.FromLayer) || !r.layerOK(req.ToLayer) {
		return nil, 0, false
	}
	ss := la.ensureSearch()
	expanded, visited := 0, 0
	var fl goalFlood
	defer func() { la.recordSearch(&req, expanded, visited, fl.popped, ok, fl.refuted) }()

	goalNode := la.idx(ti, tj)
	r.wi0, r.wj0, r.wi1, r.wj1 = la.SearchWindow(req.From, req.To, req.MaxCost)

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
	if !r.wireOK(req.FromLayer, fi, fj) {
		return nil, 0, false
	}
	if fl.start(&r, ss); fl.refuted {
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
		if fl.active {
			fl.expand(ss, la.nodeID(l, i, j))
		}
		d := ss.dist[s]
		// Wire moves.
		for nd, mv := range moves {
			if !turnOK(dir, nd) {
				continue
			}
			ni, nj := i+mv.dx, j+mv.dy
			if !r.inWindow(ni, nj) {
				continue
			}
			if !r.wireOK(l, ni, nj) || !r.regionOK(l, ni, nj) {
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
				// A consistent heuristic pops states in f order, so a
				// state over budget can never precede the goal of a
				// successful search; dropping it here instead of at pop
				// time keeps the frontier small without changing results.
				continue
			}
			relax(ns, nd2, s, pri)
		}
		// Via moves.
		for _, dl := range []int{-1, 1} {
			nl := l + dl
			if nl < 0 || nl >= la.Layers || !r.layerOK(nl) {
				continue
			}
			slab := l
			if nl < l {
				slab = nl
			}
			if !r.viaOK(slab, i, j) || !r.regionOK(nl, i, j) {
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
		if fl.active {
			if fl.step(&r, ss); fl.refuted {
				return nil, 0, false
			}
		}
	}
	return nil, 0, false
}

// goalFlood is the goal-side refutation of one search: a flood fill of
// the goal's component in the relaxed move graph, paced at one node per A*
// expansion. The graph's nodes are those A* may occupy: inside the window,
// on an allowed layer, admitting the net and inside the region or at a
// terminal. Its edges are A*'s wire and via moves between them without
// the turn rule and the cost cap, which only remove moves, so every path
// A* can find runs inside it and a component without the start holds no
// path. Nodes carry searchState.mark stamps: exp once A* has expanded
// them, reached once the flood has.
type goalFlood struct {
	exp, reached uint32
	// active: the flood may still refute. It stops for good once it
	// meets a node A* has expanded (the start is the first), since the
	// goal is then connected to the start.
	active bool
	// refuted: the flood exhausted the goal's component first.
	refuted bool
	popped  int // nodes taken off the stack
}

// start seeds the flood with the goal node. A goal at the start node
// needs no flood; a goal outside the graph is refuted at once.
func (fl *goalFlood) start(r *moveRules, ss *searchState) {
	req := r.req
	if req.FromLayer == req.ToLayer && r.fi == r.ti && r.fj == r.tj {
		return
	}
	if !r.wireOK(req.ToLayer, r.ti, r.tj) {
		fl.refuted = true
		return
	}
	fl.exp, fl.reached = ss.cur<<1, ss.cur<<1|1
	fl.active = true
	fl.reach(ss, r.la.nodeID(req.ToLayer, r.ti, r.tj))
}

// expand notes that A* has expanded node k.
func (fl *goalFlood) expand(ss *searchState, k int) {
	if ss.mark[k] == fl.reached {
		fl.active = false
	} else {
		ss.mark[k] = fl.exp
	}
}

// reach adds node k to the flood, or stops the flood if A* has expanded
// it.
func (fl *goalFlood) reach(ss *searchState, k int) {
	switch ss.mark[k] {
	case fl.reached:
	case fl.exp:
		fl.active = false
	default:
		ss.mark[k] = fl.reached
		ss.stack = append(ss.stack, int32(k))
	}
}

// step takes one node off the stack and reaches its neighbours in the
// relaxed graph. An empty stack afterwards refutes the search.
func (fl *goalFlood) step(r *moveRules, ss *searchState) {
	la := r.la
	k := int(ss.stack[len(ss.stack)-1])
	ss.stack = ss.stack[:len(ss.stack)-1]
	fl.popped++
	i, j, l := k%la.NX, k/la.NX%la.NY, k/(la.NX*la.NY)
	for nd, mv := range moves {
		ni, nj := i+mv.dx, j+mv.dy
		if !r.inWindow(ni, nj) {
			continue
		}
		nk := la.nodeID(l, ni, nj)
		if ss.mark[nk] == fl.reached || !r.wireOK(l, ni, nj) || !r.regionOK(l, ni, nj) ||
			!la.edgeFree(l, i, j, nd, r.req.Net, r.req.IgnoreForeign) {
			continue
		}
		if fl.reach(ss, nk); !fl.active {
			return
		}
	}
	for _, nl := range [2]int{l - 1, l + 1} {
		if nl < 0 || nl >= la.Layers || !r.layerOK(nl) {
			continue
		}
		nk := la.nodeID(nl, i, j)
		if ss.mark[nk] == fl.reached || !r.viaOK(min(l, nl), i, j) || !r.regionOK(nl, i, j) {
			continue
		}
		if fl.reach(ss, nk); !fl.active {
			return
		}
	}
	fl.refuted = len(ss.stack) == 0
}

// rebuild converts the predecessor chain into a compact step path with
// collinear runs merged.
func (la *Lattice) rebuild(ss *searchState, s int32) []PathStep {
	var raw []PathStep
	for cur := s; cur >= 0; cur = ss.prev[cur] {
		l, i, j, _ := la.unpack(cur)
		raw = append(raw, PathStep{Layer: l, Pt: la.NodePoint(i, j)})
	}
	// Reverse.
	for a, b := 0, len(raw)-1; a < b; a, b = a+1, b-1 {
		raw[a], raw[b] = raw[b], raw[a]
	}
	// Merge collinear same-layer runs.
	out := raw[:0]
	for k, st := range raw {
		if len(out) >= 2 {
			p0, p1 := out[len(out)-2], out[len(out)-1]
			if p0.Layer == p1.Layer && p1.Layer == st.Layer &&
				collinearDir(p0.Pt, p1.Pt, st.Pt) {
				out[len(out)-1] = st
				continue
			}
		}
		out = append(out, raw[k])
	}
	return out
}

func collinearDir(a, b, c geom.Point) bool {
	d1x, d1y := sign64(b.X-a.X), sign64(b.Y-a.Y)
	d2x, d2y := sign64(c.X-b.X), sign64(c.Y-b.Y)
	return d1x == d2x && d1y == d2y && geom.Cross(a, b, c) == 0
}

func sign64(v int64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
