// Package bench regenerates every table and figure of the paper's
// evaluation section: Table I (ours vs Lin-ext on dense1..dense5), the
// Figure 2 layer-count experiment (flexible vias reduce RDL count), the
// Figure 5 weighted-MPSC experiment (congestion-aware weights close the
// layer-assignment/detailed-routing gap), the Figure 7 LP wirelength
// experiment, the LP convergence claim of Section III-E-4, and ablations
// for each design choice. cmd/rdlbench drives these entry points.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"rdlroute/internal/baseline"
	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/geom"
	"rdlroute/internal/mpsc"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// Tracer, when non-nil, is attached to every routing run the Run* entry
// points perform (both flows). cmd/rdlbench sets it from its -trace and
// -cpuprofile flags; tests may point it at an obs.Collector. Runs execute
// one after another, so one shared sink sees a well-ordered stream.
var Tracer obs.Tracer

// Timeout, when positive, caps each routing run of the Table-I sweep (one
// deadline per flow per circuit). A circuit whose run exceeds it is
// recorded with Status "timeout" instead of aborting the whole sweep.
// cmd/rdlbench sets it from its -timeout flag.
var Timeout time.Duration

// Workers is the per-run worker-pool bound handed to the router's
// Options.Workers (0 = GOMAXPROCS, 1 = sequential). It changes run time
// only — routed results are byte-identical at every value.
var Workers int

// timeoutCtx returns the per-run context under the package Timeout.
func timeoutCtx() (context.Context, context.CancelFunc) {
	if Timeout > 0 {
		return context.WithTimeout(context.Background(), Timeout)
	}
	return context.WithCancel(context.Background())
}

// routerOptions is DefaultOptions plus the package tracer and workers.
func routerOptions() router.Options {
	o := router.DefaultOptions()
	o.Tracer = Tracer
	o.Workers = Workers
	return o
}

// instrumentedOptions is routerOptions plus a fresh per-run Collector (in
// front of the package tracer), so Result.Obs carries this run's stage
// timings and A* effort rather than a cumulative stream.
func instrumentedOptions() router.Options {
	o := router.DefaultOptions()
	o.Tracer = obs.Multi(obs.NewCollector(), Tracer)
	o.Workers = Workers
	return o
}

// baselineOptions is the baseline's DefaultOptions plus the package
// tracer.
func baselineOptions() baseline.Options {
	o := baseline.DefaultOptions()
	o.Tracer = Tracer
	return o
}

// Table1Row is one circuit's comparison between Lin-ext and our flow.
type Table1Row struct {
	Stats design.Stats
	// Status is "ok", or "timeout" when either flow exceeded the package
	// Timeout (the timed-out flow's result pointer is nil).
	Status string
	Ours   *router.Result
	Lin    *baseline.Result
	// DRC violation counts (0 expected for both flows).
	OursDRC, LinDRC int
}

// RunTable1 generates and routes the named circuits with both flows, one
// circuit after another; rows come back in input order.
func RunTable1(names []string) ([]Table1Row, error) {
	rows := make([]Table1Row, len(names))
	for i, name := range names {
		spec, err := design.DenseSpec(name)
		if err != nil {
			return nil, err
		}
		d, err := design.Generate(spec)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Stats: d.Stats(), Status: "ok"}
		ctx, cancel := timeoutCtx()
		ours, err := router.RouteContext(ctx, d, instrumentedOptions())
		cancel()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			row.Status = "timeout"
		case err != nil:
			return nil, err
		default:
			row.Ours = ours
			row.OursDRC = len(drc.Check(ours.Layout))
		}
		// The two flows mutate independent lattices; regenerate for a
		// clean slate (pads/nets identical by determinism).
		d2, err := design.Generate(spec)
		if err != nil {
			return nil, err
		}
		ctx, cancel = timeoutCtx()
		lin, err := baseline.RouteContext(ctx, d2, baselineOptions())
		cancel()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			row.Status = "timeout"
		case err != nil:
			return nil, err
		default:
			row.Lin = lin
			row.LinDRC = len(drc.Check(lin.Layout))
		}
		rows[i] = row
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's Table I shape.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %5s %5s %5s %5s %5s | %9s %9s | %10s %10s | %9s %9s\n",
		"Circuit", "#Chips", "|Q|", "|G|", "|N|", "|Lw|", "|Lv|",
		"Lin-ext R", "Ours R", "Lin-ext WL", "Ours WL", "Lin-ext t", "Ours t")
	var rLin, rOurs, tRatio float64
	var full int
	for _, r := range rows {
		s := r.Stats
		if r.Ours == nil || r.Lin == nil {
			fmt.Fprintf(&b, "%-8s %6d %5d %5d %5d %5d %5d | %s\n",
				s.Name, s.Chips, s.Q, s.G, s.N, s.WireLayers, s.ViaLayers,
				"timeout")
			continue
		}
		fmt.Fprintf(&b, "%-8s %6d %5d %5d %5d %5d %5d | %8.1f%% %8.1f%% | %10.0f %10.0f | %8.2fs %8.2fs\n",
			s.Name, s.Chips, s.Q, s.G, s.N, s.WireLayers, s.ViaLayers,
			r.Lin.Routability, r.Ours.Routability,
			r.Lin.Wirelength, r.Ours.Wirelength,
			r.Lin.Runtime.Seconds(), r.Ours.Runtime.Seconds())
		rLin += r.Lin.Routability / 100
		rOurs += r.Ours.Routability / 100
		if r.Ours.Runtime > 0 {
			tRatio += r.Lin.Runtime.Seconds() / r.Ours.Runtime.Seconds()
		}
		full++
	}
	n := float64(full)
	if n > 0 {
		fmt.Fprintf(&b, "%-8s %45s | %9.3f %9.3f | %21s | %9.3f %9.3f\n",
			"Comp.", "", rLin/n/(rOurs/n), 1.0, "", tRatio/n, 1.0)
		fmt.Fprintf(&b, "(paper:  Lin-ext routability ratio 0.794, runtime ratio 0.297)\n")
	}
	return b.String()
}

// Fig2Result reports the minimum RDL (wire-layer) count each flow needs to
// fully route the entangled three-net pattern of Figure 2.
type Fig2Result struct {
	OursMinLayers int `json:"ours_min_layers"`
	LinMinLayers  int `json:"lin_min_layers"`
}

// RunFig2 builds the Figure 2 pattern — three pairwise-crossing nets
// between two chips in a closed channel (no go-around: the chips span the
// package height) — and finds each flow's minimum layer count.
func RunFig2() (Fig2Result, error) {
	res := Fig2Result{OursMinLayers: -1, LinMinLayers: -1}
	for layers := 1; layers <= 4; layers++ {
		d := fig2Design(layers)
		r, err := router.Route(d, routerOptions())
		if err != nil {
			return res, err
		}
		if r.Routability == 100 && len(drc.Check(r.Layout)) == 0 {
			res.OursMinLayers = layers
			break
		}
	}
	for layers := 1; layers <= 5; layers++ {
		d := fig2Design(layers)
		r, err := baseline.Route(d, baselineOptions())
		if err != nil {
			return res, err
		}
		if r.Routability == 100 && len(drc.Check(r.Layout)) == 0 {
			res.LinMinLayers = layers
			break
		}
	}
	return res, nil
}

// fig2Design builds the entangled pattern as a closed routing channel:
// chipless pads hug the left and right package edges (the gap between a
// pad and the boundary is below the wire clearance, so nothing routes
// around them), and net i connects the i-th left pad to the (2−i)-th
// right pad — all three nets pairwise cross topologically.
func fig2Design(layers int) *design.Design {
	d := &design.Design{
		Name:       fmt.Sprintf("fig2-%dL", layers),
		Outline:    geom.RectWH(0, 0, 504, 480),
		WireLayers: layers,
		Rules:      design.Rules{Spacing: 5, WireWidth: 4, ViaWidth: 16},
	}
	id := 0
	pad := func(x, y int64) int {
		d.IOPads = append(d.IOPads, design.IOPad{ID: id, Chip: -1, Center: geom.Pt(x, y), HalfW: 8})
		id++
		return id - 1
	}
	var left, right []int
	for i := 0; i < 3; i++ {
		y := int64(120 + 120*i)
		left = append(left, pad(12, y))
		right = append(right, pad(492, y))
	}
	for i := 0; i < 3; i++ {
		d.Nets = append(d.Nets, design.Net{
			ID: i,
			P1: design.PadRef{Kind: design.IOKind, Index: left[i]},
			P2: design.PadRef{Kind: design.IOKind, Index: right[2-i]},
		})
	}
	return d
}

// Fig5Result compares unweighted and weighted (Eq. 2) MPSC layer
// assignment on the paper's Figure 5 narrow-channel scenario.
type Fig5Result struct {
	// UnweightedAssigned counts nets the unweighted MPSC assigns to the
	// layer; UnweightedSurvive counts those surviving capacity-1 routing.
	UnweightedAssigned int `json:"unweighted_assigned"`
	UnweightedSurvive  int `json:"unweighted_survive"`
	WeightedAssigned   int `json:"weighted_assigned"`
	WeightedSurvive    int `json:"weighted_survive"`
}

// RunFig5 reproduces the Figure 5 example at the algorithm level: five net
// candidates on the circular model (circle order D A B C E F J I H G);
// the three long chords share a fan-out channel of capacity 1 while the
// two short chords are local. Chord weights follow Eq. (2) with the
// channel's overflow rate (demand 3 over capacity 1) and the paper's
// α, β, γ, δ.
func RunFig5() Fig5Result {
	const (
		dD, dA, dB, dC, dE, dF, dJ, dI, dH, dG = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
	)
	long := []mpsc.Chord{
		{A: dA, B: dH, Tag: 0},
		{A: dB, B: dI, Tag: 1},
		{A: dC, B: dJ, Tag: 2},
	}
	short := []mpsc.Chord{
		{A: dD, B: dE, Tag: 3},
		{A: dF, B: dG, Tag: 4},
	}
	// survival under a capacity-1 shared channel: at most one long net
	// routes; short nets always route.
	survive := func(picked []mpsc.Chord) int {
		longs, shorts := 0, 0
		for _, c := range picked {
			if c.Tag <= 2 {
				longs++
			} else {
				shorts++
			}
		}
		if longs > 1 {
			longs = 1
		}
		return longs + shorts
	}

	var res Fig5Result

	unweighted := append([]mpsc.Chord{}, long...)
	unweighted = append(unweighted, short...)
	for i := range unweighted {
		unweighted[i].W = 1
	}
	picked, _ := mpsc.MaxPlanarSubset(10, unweighted)
	res.UnweightedAssigned = len(picked)
	var sel []mpsc.Chord
	for _, i := range picked {
		sel = append(sel, unweighted[i])
	}
	res.UnweightedSurvive = survive(sel)

	// Eq. (2) weights: long nets pass the capacity-1 channel with demand 3
	// (overflow rate 3), detour rate ≈ 1.2; short nets see no overflow,
	// detour rate ≈ 1.0.
	w := func(rd, fmax, favg float64) float64 {
		const alpha, beta, gamma, delta = 0.1, 1, 1, 2
		den := alpha*rd + beta*math.Log(delta+fmax)/math.Log(delta) + gamma*math.Log(delta+favg)/math.Log(delta)
		return 1 / den
	}
	weighted := append([]mpsc.Chord{}, long...)
	weighted = append(weighted, short...)
	for i := range weighted {
		if weighted[i].Tag <= 2 {
			weighted[i].W = w(1.2, 3, 3)
		} else {
			weighted[i].W = w(1.0, 0, 0)
		}
	}
	picked, _ = mpsc.MaxPlanarSubset(10, weighted)
	res.WeightedAssigned = len(picked)
	sel = sel[:0]
	for _, i := range picked {
		sel = append(sel, weighted[i])
	}
	res.WeightedSurvive = survive(sel)
	return res
}

// Fig7Row reports the LP optimization's wirelength effect on one circuit.
type Fig7Row struct {
	Name       string  `json:"circuit"`
	Before     float64 `json:"wl_before"` // wirelength entering stage 5
	After      float64 `json:"wl_after"`  // wirelength after LP optimization
	Reduction  float64 `json:"reduction_pct"`
	Iterations int     `json:"iterations"`
}

// AblationRow is one configuration's outcome on one circuit.
type AblationRow struct {
	Config      string  `json:"config"`
	Name        string  `json:"circuit"`
	Routability float64 `json:"routability"`
	Wirelength  float64 `json:"wirelength"`
	Concurrent  int     `json:"concurrent_routed"`
	DRC         int     `json:"drc_violations"`
	Seconds     float64 `json:"seconds"`
}

// Ablations returns the named toggles applied to DefaultOptions.
func Ablations() []struct {
	Label string
	Mut   func(*router.Options)
} {
	return []struct {
		Label string
		Mut   func(*router.Options)
	}{
		{"full", func(o *router.Options) {}},
		{"unweighted-mpsc", func(o *router.Options) { o.UseWeights = false }},
		{"no-lp", func(o *router.Options) { o.EnableLP = false }},
		{"no-via-insertion", func(o *router.Options) { o.EnableVias = false }},
		{"no-concurrent", func(o *router.Options) { o.EnableStage2 = false }},
	}
}

// RunAblations routes the named circuits under every ablation; rows come
// back grouped by circuit, then ablation.
func RunAblations(names []string) ([]AblationRow, error) {
	var rows []AblationRow
	for _, name := range names {
		spec, err := design.DenseSpec(name)
		if err != nil {
			return nil, err
		}
		for _, ab := range Ablations() {
			d, err := design.Generate(spec)
			if err != nil {
				return nil, err
			}
			opts := routerOptions()
			ab.Mut(&opts)
			r, err := router.Route(d, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Config:      ab.Label,
				Name:        name,
				Routability: r.Routability,
				Wirelength:  r.Wirelength,
				Concurrent:  r.ConcurrentRouted,
				DRC:         len(drc.Check(r.Layout)),
				Seconds:     r.Runtime.Seconds(),
			})
		}
	}
	return rows, nil
}

// QualityRow reports wirelength quality (routed length vs the octilinear
// pad-to-pad lower bound) per circuit.
type QualityRow struct {
	Name       string  `json:"circuit"`
	LowerBound float64 `json:"lower_bound"`
	Actual     float64 `json:"actual"`
	MeanDetour float64 `json:"mean_detour"`
	P95        float64 `json:"p95_detour"`
	MaxDetour  float64 `json:"max_detour"`
}

// GraphSizeRow compares the octagonal-tile routing graph's size against an
// equivalent uniform-lattice graph on one circuit — the resource-modeling
// argument behind the paper's tile model.
type GraphSizeRow struct {
	Name      string  `json:"circuit"`
	TileNodes int     `json:"tile_nodes"` // octagonal tiles across all layers, after routing
	GridNodes int     `json:"grid_nodes"` // uniform detailed-routing lattice nodes across layers
	Ratio     float64 `json:"ratio"`
}

// LPIterRow reports stage-5 convergence per circuit (Section III-E-4: the
// paper observes ≤ 50 iterations on its largest benchmark).
type LPIterRow struct {
	Name       string `json:"circuit"`
	Iterations int    `json:"iterations"`
	Components int    `json:"components"`
}

// MetricsRow bundles the per-circuit measurements that share one routing
// run: the Figure 7 LP effect, LP convergence, graph size and wirelength
// quality.
type MetricsRow struct {
	Name    string
	Fig7    Fig7Row
	LPIter  LPIterRow
	Graph   GraphSizeRow
	Quality QualityRow
}

// RunMetrics routes each named circuit once and extracts every shared
// metric from that single run; rows come back in input order.
func RunMetrics(names []string) ([]MetricsRow, error) {
	rows := make([]MetricsRow, len(names))
	for i, name := range names {
		spec, err := design.DenseSpec(name)
		if err != nil {
			return nil, err
		}
		d, err := design.Generate(spec)
		if err != nil {
			return nil, err
		}
		r, err := router.Route(d, routerOptions())
		if err != nil {
			return nil, err
		}
		red := 0.0
		if r.WirelengthBeforeLP > 0 {
			red = 100 * (r.WirelengthBeforeLP - r.Wirelength) / r.WirelengthBeforeLP
		}
		nx := int(d.Outline.W()/design.Grid) + 1
		ny := int(d.Outline.H()/design.Grid) + 1
		grid := nx * ny * d.WireLayers
		ratio := 0.0
		if grid > 0 {
			ratio = float64(r.TileCount) / float64(grid)
		}
		q := r.Layout.QualityStats()
		rows[i] = MetricsRow{
			Name: name,
			Fig7: Fig7Row{
				Name: name, Before: r.WirelengthBeforeLP, After: r.Wirelength,
				Reduction: red, Iterations: r.LPIterations,
			},
			LPIter: LPIterRow{Name: name, Iterations: r.LPIterations, Components: r.LPComponents},
			Graph:  GraphSizeRow{Name: name, TileNodes: r.TileCount, GridNodes: grid, Ratio: ratio},
			Quality: QualityRow{
				Name: name, LowerBound: q.LowerBound, Actual: q.Actual,
				MeanDetour: q.MeanDetour, P95: q.P95Detour, MaxDetour: q.MaxDetour,
			},
		}
	}
	return rows, nil
}
