package fanout

import (
	"fmt"
	"math"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/graphs"
	"rdlroute/internal/mpsc"
)

// Candidate is a net eligible for fan-out concurrent routing: an
// inter-chip net whose two I/O pads are both peripheral.
type Candidate struct {
	Net        int // index into Design.Nets
	AP1, AP2   AccessPoint
	Path       []int   // MST grid path from AP1.Grid to AP2.Grid
	DetourRate float64 // pre-routed path length / direct pad distance
	FMax       float64 // max overflow rate along Path (Eq. 1)
	FAvg       float64 // average overflow rate along Path
	Pos1, Pos2 int     // positions in the circular model
}

// WeightParams are the user parameters of Eq. (2). The paper's defaults
// are α=0.1, β=1, γ=1, δ=2.
type WeightParams struct {
	Alpha, Beta, Gamma, Delta float64
}

// DefaultWeightParams returns the paper's experimental settings.
func DefaultWeightParams() WeightParams {
	return WeightParams{Alpha: 0.1, Beta: 1, Gamma: 1, Delta: 2}
}

// Analysis is the preprocessing result consumed by the concurrent router.
type Analysis struct {
	Design     *design.Design
	Cfg        Config
	Grids      []Grid
	Graph      *graphs.Graph
	Tree       *graphs.Tree
	Access     map[int]AccessPoint // by pad index
	Candidates []Candidate
	CircleLen  int // number of positions in the circular model

	// capacity per tree edge key (min<<32|max), in simultaneous tracks.
	cap map[int64]float64
}

func edgeKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// Analyze runs the full preprocessing stage.
func Analyze(d *design.Design, cfg Config) (*Analysis, error) {
	if cfg.PeripheralDist == 0 {
		cfg = DefaultConfig()
	}
	if cfg.TrackPitch == 0 {
		cfg.TrackPitch = d.Rules.WireWidth + d.Rules.Spacing
	}
	grids := partitionFanOut(d)
	if len(grids) == 0 {
		return nil, fmt.Errorf("fanout: design %s has no fan-out region", d.Name)
	}
	access, err := accessPoints(d, grids, cfg)
	if err != nil {
		return nil, err
	}

	// Fan-out grid graph: vertices are merged grids, edges join grids with
	// a shared border; weight is center-to-center distance.
	g := graphs.NewGraph(len(grids))
	capByEdge := make(map[int64]float64)
	for i := range grids {
		for j := i + 1; j < len(grids); j++ {
			b := gridBorder(grids[i].Box, grids[j].Box)
			if b <= 0 {
				continue
			}
			g.AddEdge(i, j, geom.Euclid(grids[i].Box.Center(), grids[j].Box.Center()))
			capByEdge[edgeKey(i, j)] = float64(b / cfg.TrackPitch)
		}
	}
	tree := graphs.PrimMST(g)

	a := &Analysis{
		Design: d,
		Cfg:    cfg,
		Grids:  grids,
		Graph:  g,
		Tree:   tree,
		Access: access,
		cap:    capByEdge,
	}

	// Net candidates: inter-chip nets with both pads peripheral and both
	// access grids in the same tree component.
	for ni, n := range d.Nets {
		if !n.InterChip() {
			continue
		}
		ap1, ok1 := access[n.P1.Index]
		ap2, ok2 := access[n.P2.Index]
		if !ok1 || !ok2 {
			continue
		}
		path := tree.Path(ap1.Grid, ap2.Grid)
		if path == nil {
			continue
		}
		direct := geom.OctDist(ap1.Point, ap2.Point)
		if direct < 1 {
			direct = 1
		}
		a.Candidates = append(a.Candidates, Candidate{
			Net: ni, AP1: ap1, AP2: ap2, Path: path,
			DetourRate: pathLen(a, ap1, ap2, path) / direct,
		})
	}

	a.buildCircle()
	a.RecomputeCongestion(nil)
	return a, nil
}

// pathLen measures the pre-routed path: access point → grid centers along
// the path → access point.
func pathLen(a *Analysis, ap1, ap2 AccessPoint, path []int) float64 {
	pts := make([]geom.Point, 0, len(path)+2)
	pts = append(pts, ap1.Point)
	for _, gid := range path {
		pts = append(pts, a.Grids[gid].Box.Center())
	}
	pts = append(pts, ap2.Point)
	total := 0.0
	for i := 0; i+1 < len(pts); i++ {
		total += geom.OctDist(pts[i], pts[i+1])
	}
	return total
}

// EdgeCapacity returns the track capacity of the tree edge {u, v}.
func (a *Analysis) EdgeCapacity(u, v int) float64 { return a.cap[edgeKey(u, v)] }

// RecomputeCongestion recomputes per-edge demand and each candidate's FMax
// and FAvg (Eq. 1), counting only candidates whose index is not in the
// skip set (pass nil to count all). Call it again between per-layer
// assignment rounds as candidates get consumed.
func (a *Analysis) RecomputeCongestion(skip map[int]bool) {
	dem := make(map[int64]float64)
	for ci, c := range a.Candidates {
		if skip[ci] {
			continue
		}
		for i := 0; i+1 < len(c.Path); i++ {
			dem[edgeKey(c.Path[i], c.Path[i+1])]++
		}
	}
	overflow := func(u, v int) float64 {
		k := edgeKey(u, v)
		capE := a.cap[k]
		d := dem[k]
		if capE >= d {
			return 0
		}
		if capE <= 0 {
			capE = 0.5 // zero-capacity border: heavily congested
		}
		return d / capE
	}
	for ci := range a.Candidates {
		c := &a.Candidates[ci]
		c.FMax, c.FAvg = 0, 0
		edges := 0
		for i := 0; i+1 < len(c.Path); i++ {
			f := overflow(c.Path[i], c.Path[i+1])
			if f > c.FMax {
				c.FMax = f
			}
			c.FAvg += f
			edges++
		}
		if edges > 0 {
			c.FAvg /= float64(edges)
		}
	}
}

// Chords converts the candidates (excluding the skip set) into weighted
// chords of the circular model, with Tag = candidate index. Weights follow
// Eq. (2):
//
//	weight = (α·r_d + β·log_δ(δ+f_max) + γ·log_δ(δ+f_avg))⁻¹
func (a *Analysis) Chords(p WeightParams, skip map[int]bool) []mpsc.Chord {
	var out []mpsc.Chord
	logd := math.Log(p.Delta)
	for ci, c := range a.Candidates {
		if skip[ci] {
			continue
		}
		den := p.Alpha * c.DetourRate
		if p.Delta > 1 {
			den += p.Beta * math.Log(p.Delta+c.FMax) / logd
			den += p.Gamma * math.Log(p.Delta+c.FAvg) / logd
		}
		if den <= 0 {
			den = 1e-6
		}
		out = append(out, mpsc.Chord{A: c.Pos1, B: c.Pos2, W: 1 / den, Tag: ci})
	}
	return out
}
