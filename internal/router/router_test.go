package router

import (
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
)

// smallDesign builds a 2-chip instance with 8 facing peripheral nets plus
// 2 interior-pad nets, all grid-aligned.
func smallDesign() *design.Design {
	d := &design.Design{
		Name:       "small",
		Outline:    geom.RectWH(0, 0, 1440, 960),
		WireLayers: 3,
		Rules:      design.Rules{Spacing: 5, WireWidth: 4, ViaWidth: 16},
		Chips: []design.Chip{
			{Name: "a", Box: geom.RectWH(120, 288, 360, 360)},
			{Name: "b", Box: geom.RectWH(960, 288, 360, 360)},
		},
	}
	id := 0
	addPad := func(chip int, x, y int64) int {
		d.IOPads = append(d.IOPads, design.IOPad{ID: id, Chip: chip, Center: geom.Pt(x, y), HalfW: 8})
		id++
		return id - 1
	}
	// Facing edges: chip a east (x=468), chip b west (x=972).
	for i := 0; i < 4; i++ {
		y := int64(336 + 60*i)
		p1 := addPad(0, 468, y)
		p2 := addPad(1, 972, y)
		d.Nets = append(d.Nets, design.Net{
			ID: len(d.Nets),
			P1: design.PadRef{Kind: design.IOKind, Index: p1},
			P2: design.PadRef{Kind: design.IOKind, Index: p2},
		})
	}
	// Outer edges: chip a west (x=132), chip b east (x=1308) — these have
	// to go around or through layers.
	for i := 0; i < 4; i++ {
		y := int64(336 + 60*i)
		p1 := addPad(0, 132, y)
		p2 := addPad(1, 1308, y)
		d.Nets = append(d.Nets, design.Net{
			ID: len(d.Nets),
			P1: design.PadRef{Kind: design.IOKind, Index: p1},
			P2: design.PadRef{Kind: design.IOKind, Index: p2},
		})
	}
	// Interior pads (not peripheral): exercised by the sequential stage.
	p1 := addPad(0, 300, 468)
	p2 := addPad(1, 1140, 468)
	d.Nets = append(d.Nets, design.Net{
		ID: len(d.Nets),
		P1: design.PadRef{Kind: design.IOKind, Index: p1},
		P2: design.PadRef{Kind: design.IOKind, Index: p2},
	})
	return d
}

// TestRouteRejectsOversizedGlobalCells: a global-cell grid finer than the
// lattice, or a negative one, fails before stage 1. Stage 3 sizes its tile
// tables by cells², so 100000 cells per axis would exhaust memory in
// ctile.NewModel, a runtime abort no caller can recover from.
func TestRouteRejectsOversizedGlobalCells(t *testing.T) {
	d := genDense1(t)
	maxCells := int(min(d.Outline.W(), d.Outline.H())/design.Grid + 1)
	if maxCells < 30 {
		t.Fatalf("dense1 short axis has %d lattice nodes, below the default 30 cells", maxCells)
	}
	for _, cells := range []int{maxCells + 1, 100000, -5} {
		opts := DefaultOptions()
		opts.GlobalCells = cells
		c := obs.NewCollector()
		opts.Tracer = c
		if _, err := Route(d, opts); err == nil {
			t.Errorf("GlobalCells %d accepted", cells)
		}
		if spans := c.Snapshot().Spans; len(spans) != 0 {
			t.Errorf("GlobalCells %d: stages ran before the rejection: %v", cells, spans)
		}
	}
}

func TestRouteSmallDesign(t *testing.T) {
	d := smallDesign()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Route(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("routability=%.1f%% (conc=%d seq=%d corridor=%d fallback=%d) wl=%.0f (pre-LP %.0f) tiles=%d lpIters=%d",
		res.Routability, res.ConcurrentRouted, res.SequentialRouted,
		res.CorridorRouted, res.FallbackRouted,
		res.Wirelength, res.WirelengthBeforeLP, res.TileCount, res.LPIterations)
	if res.Routability < 100 {
		t.Errorf("routability = %v, want 100", res.Routability)
	}
	if vs := drc.Check(res.Layout); len(vs) != 0 {
		for _, v := range vs[:min(len(vs), 10)] {
			t.Errorf("DRC: %v", v)
		}
	}
	for ni := range d.Nets {
		if res.Layout.Routed(ni) && !res.Layout.Connected(ni) {
			t.Errorf("net %d marked routed but disconnected", ni)
		}
	}
	if res.ConcurrentRouted == 0 {
		t.Error("stage 2 routed nothing")
	}
	if res.Wirelength > res.WirelengthBeforeLP {
		t.Errorf("LP increased wirelength: %v -> %v", res.WirelengthBeforeLP, res.Wirelength)
	}
}

func TestRouteAblationsStillLegal(t *testing.T) {
	d := smallDesign()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"no-weights", func(o *Options) { o.UseWeights = false }},
		{"no-lp", func(o *Options) { o.EnableLP = false }},
		{"no-via-insertion", func(o *Options) { o.EnableVias = false }},
		{"no-stage2", func(o *Options) { o.EnableStage2 = false }},
	}
	for _, c := range cases {
		opts := DefaultOptions()
		c.mut(&opts)
		res, err := Route(d, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if vs := drc.Check(res.Layout); len(vs) != 0 {
			t.Errorf("%s: %d DRC violations, first: %v", c.name, len(vs), vs[0])
		}
		if res.Routability < 80 {
			t.Errorf("%s: routability = %v", c.name, res.Routability)
		}
		t.Logf("%s: routability=%.1f%% wl=%.0f", c.name, res.Routability, res.Wirelength)
	}
}

func TestRouteDense1(t *testing.T) {
	if testing.Short() {
		t.Skip("dense benchmark in -short mode")
	}
	spec, err := design.DenseSpec("dense1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dense1: routability=%.1f%% (conc=%d seq=%d) wl=%.0f (pre-LP %.0f) runtime=%v",
		res.Routability, res.ConcurrentRouted, res.SequentialRouted,
		res.Wirelength, res.WirelengthBeforeLP, res.Runtime)
	if res.Routability < 95 {
		t.Errorf("dense1 routability = %v, paper reports 100", res.Routability)
	}
	if vs := drc.Check(res.Layout); len(vs) != 0 {
		t.Errorf("dense1: %d DRC violations, first: %v", len(vs), vs[0])
	}
}

func TestRouteExtendedFormulation(t *testing.T) {
	// Chip-to-board nets, netless obstacles and pre-assigned blockage vias
	// (the formulation's O and V_p sets) all at once.
	d, err := design.Generate(design.GenSpec{
		Name:       "ext",
		Chips:      3,
		IOPads:     48,
		BumpPads:   64,
		WireLayers: 4,
		Seed:       17,
		BoardFrac:  0.25,
		Obstacles:  6,
		FixedVias:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("extended: routability=%.1f%% wl=%.0f (conc=%d seq=%d)",
		res.Routability, res.Wirelength, res.ConcurrentRouted, res.SequentialRouted)
	if res.Routability < 90 {
		t.Errorf("routability = %v", res.Routability)
	}
	if vs := drc.Check(res.Layout); len(vs) != 0 {
		t.Errorf("%d DRC violations, first: %v", len(vs), vs[0])
	}
	// At least one board net should be routed down to its bump pad.
	boardRouted := 0
	for ni, n := range d.Nets {
		if n.P2.Kind == design.BumpKind && res.Layout.Routed(ni) {
			boardRouted++
			if !res.Layout.Connected(ni) {
				t.Errorf("board net %d marked routed but disconnected", ni)
			}
		}
	}
	if boardRouted == 0 {
		t.Error("no chip-to-board net routed")
	}
}

// TestIrregularLPRegression pins the LP rounding bug found on this
// instance: odd margins plus even-integer rounding used to corrupt route
// monotonicity (direction flips) in dense irregular layouts.
func TestIrregularLPRegression(t *testing.T) {
	d, err := design.Generate(design.GenSpec{
		Name: "irregular-demo", Chips: 3, IOPads: 60, BumpPads: 100,
		WireLayers: 3, Seed: 42, InteriorFrac: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if vs := drc.Check(res.Layout); len(vs) != 0 {
		t.Errorf("%d violations, first: %v", len(vs), vs[0])
	}
}

// TestRouteRandomDesignsAlwaysLegal is the router's end-to-end property
// test: whatever the instance, the flow must produce a DRC-clean layout
// and every net it claims routed must actually connect.
func TestRouteRandomDesignsAlwaysLegal(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end test in -short mode")
	}
	for seed := int64(1); seed <= 8; seed++ {
		spec := design.GenSpec{
			Name:       "rand",
			Chips:      2 + int(seed)%4,
			IOPads:     24 + int(seed*7)%40,
			BumpPads:   36 + int(seed*13)%64,
			WireLayers: 3 + int(seed)%3,
			Seed:       seed,
			BoardFrac:  float64(seed%3) * 0.15,
		}
		if spec.WireLayers >= 3 {
			spec.Obstacles = int(seed) % 5
			spec.FixedVias = int(seed) % 7
		}
		d, err := design.Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := Route(d, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if vs := drc.Check(res.Layout); len(vs) != 0 {
			t.Errorf("seed %d: %d DRC violations, first: %v", seed, len(vs), vs[0])
		}
		for ni := range d.Nets {
			if res.Layout.Routed(ni) && !res.Layout.Connected(ni) {
				t.Errorf("seed %d: net %d routed but disconnected", seed, ni)
			}
		}
		if res.Routability < 85 {
			t.Errorf("seed %d: routability %.1f%%", seed, res.Routability)
		}
	}
}

func TestRipUpNeverRegresses(t *testing.T) {
	if testing.Short() {
		t.Skip("rip-up sweep in -short mode")
	}
	for seed := int64(1); seed <= 4; seed++ {
		spec := design.GenSpec{
			Name: "rip", Chips: 3, IOPads: 36 + int(seed*11)%30,
			BumpPads: 49, WireLayers: 3, Seed: seed,
		}
		d, err := design.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Route(d, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.RipUpRounds = 2
		withRip, err := Route(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if withRip.Routability < base.Routability {
			t.Errorf("seed %d: rip-up regressed %.1f%% -> %.1f%%",
				seed, base.Routability, withRip.Routability)
		}
		if vs := drc.Check(withRip.Layout); len(vs) != 0 {
			t.Errorf("seed %d: rip-up produced violations: %v", seed, vs[0])
		}
	}
}

func TestRipUpRecoversNets(t *testing.T) {
	// Single-layer instances are routability-starved; rip-up recovers nets
	// that a greedy sequential order painted into a corner. Seed 7 is a
	// deterministic instance where it gains four nets.
	d, err := design.Generate(design.GenSpec{
		Name: "hunt", Chips: 3, IOPads: 43, BumpPads: 0, WireLayers: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Route(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.RipUpRounds = 2
	rip, err := Route(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rip.RipUpRouted == 0 {
		t.Error("rip-up recovered nothing on the known-recoverable instance")
	}
	if rip.Routability <= base.Routability {
		t.Errorf("rip-up routability %.1f%% not above base %.1f%%",
			rip.Routability, base.Routability)
	}
	if vs := drc.Check(rip.Layout); len(vs) != 0 {
		t.Errorf("rip-up result has violations: %v", vs[0])
	}
}

// TestNetOrderStrategies routes a small design under every ordering
// registry policy, and checks that an index outside the registry fails
// before any stage runs.
func TestNetOrderStrategies(t *testing.T) {
	d := smallDesign()
	for i := 0; i < NumPolicies; i++ {
		name := PolicyName(i)
		opts := DefaultOptions()
		opts.OrderPolicy = i
		res, err := Route(d, opts)
		if err != nil {
			t.Fatalf("order %s: %v", name, err)
		}
		if res.Routability < 90 {
			t.Errorf("order %s: routability %.1f%%", name, res.Routability)
		}
		if vs := drc.Check(res.Layout); len(vs) != 0 {
			t.Errorf("order %s: violations: %v", name, vs[0])
		}
	}
	for _, i := range []int{-1, NumPolicies} {
		c := obs.NewCollector()
		opts := DefaultOptions()
		opts.OrderPolicy = i
		opts.Tracer = c
		if _, err := Route(d, opts); err == nil {
			t.Errorf("order policy %d accepted", i)
		}
		if spans := c.Snapshot().Spans; len(spans) != 0 {
			t.Errorf("order policy %d: stages ran before the range check: %v", i, spans)
		}
	}
}
