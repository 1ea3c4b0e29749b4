package router

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/layout"
	"rdlroute/internal/obs"
)

// routedNets lists the nets the layout marks routed, ascending.
func routedNets(l *layout.Layout) []int {
	var ns []int
	for i := range l.D.Nets {
		if l.Routed(i) {
			ns = append(ns, i)
		}
	}
	return ns
}

// routedEvents counts "net.route" events for one stage with the given
// outcome.
func routedEvents(c *obs.Collector, stage, outcome string) int {
	return c.CountEvents("net.route", func(e obs.Event) bool {
		return e.Str("stage") == stage && e.Str("outcome") == outcome
	})
}

// checkStageInvariants verifies the result's stage counters against each
// other and against the collector's per-net event stream.
func checkStageInvariants(t *testing.T, res *Result, c *obs.Collector) {
	t.Helper()
	if got := res.ConcurrentRouted + res.SequentialRouted + res.RipUpRouted; got != res.RoutedNets {
		t.Errorf("stage counters: concurrent %d + sequential %d + ripup %d = %d, want RoutedNets %d",
			res.ConcurrentRouted, res.SequentialRouted, res.RipUpRouted, got, res.RoutedNets)
	}
	if got := res.CorridorRouted + res.FallbackRouted; got != res.SequentialRouted {
		t.Errorf("corridor %d + fallback %d = %d, want SequentialRouted %d",
			res.CorridorRouted, res.FallbackRouted, got, res.SequentialRouted)
	}
	if n := routedEvents(c, "concurrent", "routed"); n != res.ConcurrentRouted {
		t.Errorf("concurrent net.route events = %d, want %d", n, res.ConcurrentRouted)
	}
	if n := routedEvents(c, "sequential", "routed"); n != res.SequentialRouted {
		t.Errorf("sequential net.route events = %d, want %d", n, res.SequentialRouted)
	}
	if n := routedEvents(c, "ripup", "routed"); n != res.RipUpRouted {
		t.Errorf("ripup net.route events = %d, want %d", n, res.RipUpRouted)
	}
	corridor := c.CountEvents("net.route", func(e obs.Event) bool {
		return e.Str("stage") == "sequential" && e.Str("outcome") == "routed" && e.Str("mode") == "corridor"
	})
	if corridor != res.CorridorRouted {
		t.Errorf("corridor-mode events = %d, want %d", corridor, res.CorridorRouted)
	}
	if n := c.Counter("router.nets_routed"); n != int64(res.RoutedNets) {
		t.Errorf("router.nets_routed counter = %d, want %d", n, res.RoutedNets)
	}
	if n := c.Counter("router.nets_total"); n != int64(res.TotalNets) {
		t.Errorf("router.nets_total counter = %d, want %d", n, res.TotalNets)
	}
}

func TestObsCollectorSmallDesign(t *testing.T) {
	d := smallDesign()
	c := obs.NewCollector()
	opts := DefaultOptions()
	opts.Tracer = c
	res, err := Route(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkStageInvariants(t, res, c)
	for _, stage := range []string{"preprocess", "concurrent", "graph", "sequential", "lp"} {
		if n := len(c.Spans("stage:" + stage)); n != 1 {
			t.Errorf("stage %q: %d spans, want 1", stage, n)
		}
	}
	if res.Obs == nil {
		t.Fatal("Result.Obs not attached with a Collector tracer")
	}
	if got := res.Obs.Counters["router.nets_routed"]; got != int64(res.RoutedNets) {
		t.Errorf("snapshot router.nets_routed = %d, want %d", got, res.RoutedNets)
	}
	if len(res.Obs.Spans) == 0 || res.Obs.Events == 0 {
		t.Error("snapshot missing spans or events")
	}
	// The ctile stage reports one event per wire layer.
	if n := len(c.Events("ctile.layer")); n != d.WireLayers {
		t.Errorf("ctile.layer events = %d, want %d", n, d.WireLayers)
	}
	// A* effort was actually measured, not left at zero.
	hot := c.CountEvents("net.route", func(e obs.Event) bool { return e.Num("expanded") > 0 })
	if hot == 0 {
		t.Error("no net.route event carries a positive expanded count")
	}
}

func TestObsNilTracerLeavesResultBare(t *testing.T) {
	res, err := Route(smallDesign(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil {
		t.Error("Result.Obs set without a tracer")
	}
}

// TestObsCorridorCounters checks the effort counters emitted at the end of
// stage 4. Corridor graph: one corridor search per stage-4 net, its
// expansions observed, and the tile adjacency tests and reach-mask
// rebuilds that kept the graph current reported beside them. Lattice:
// candidate edges, reference distance tests and edge claims, with the
// reference tests and claims bounded by the candidates; a portfolio run
// reports the counts of a solo run of its winner, since the scratch
// clones the race routes on report nothing. Attaching the tracer must
// leave the routed result (fingerprint, wires, vias, routed set)
// identical to an untraced run.
func TestObsCorridorCounters(t *testing.T) {
	d := smallDesign()
	c := obs.NewCollector()
	opts := DefaultOptions()
	opts.Tracer = c
	res, fp, err := RouteFingerprint(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	bare, bareFp, err := RouteFingerprint(context.Background(), d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sameLayout := reflect.DeepEqual(res.Layout.Routes, bare.Layout.Routes) &&
		reflect.DeepEqual(res.Layout.Vias, bare.Layout.Vias) &&
		reflect.DeepEqual(routedNets(res.Layout), routedNets(bare.Layout))
	if fp != bareFp || !sameLayout || res.Wirelength != bare.Wirelength {
		t.Errorf("tracer changed the result: fingerprint %x vs %x, wirelength %v vs %v, layout equal %v",
			fp, bareFp, res.Wirelength, bare.Wirelength, sameLayout)
	}

	stage4 := res.TotalNets - res.ConcurrentRouted
	if stage4 == 0 {
		t.Fatal("no stage-4 nets; the design no longer exercises the corridor search")
	}
	if n := c.Counter("corridor.searches"); n != int64(stage4) {
		t.Errorf("corridor.searches = %d, want one per stage-4 net (%d)", n, stage4)
	}
	if f, s := c.Counter("corridor.failures"), c.Counter("corridor.searches"); f < 0 || f > s {
		t.Errorf("corridor.failures = %d of %d searches", f, s)
	}
	snap := c.Snapshot()
	if e := snap.Dists["corridor.expanded"]; e.Count != stage4 || e.Sum <= 0 {
		t.Errorf("corridor.expanded: %d observations summing %v, want %d with positive effort", e.Count, e.Sum, stage4)
	}
	edgeCounters := []string{"lattice.edge_tests", "lattice.edge_ref_tests", "lattice.edge_claims"}
	for _, name := range append([]string{"ctile.reach_rebuilds", "ctile.adjacency_tests"}, edgeCounters...) {
		if _, ok := snap.Counters[name]; !ok || c.Counter(name) <= 0 {
			t.Errorf("counter %s = %d, want it present and positive", name, c.Counter(name))
		}
	}
	tests, ref, claims := c.Counter(edgeCounters[0]), c.Counter(edgeCounters[1]), c.Counter(edgeCounters[2])
	if ref > tests || claims > tests {
		t.Errorf("lattice.edge_ref_tests %d and lattice.edge_claims %d, want both at most lattice.edge_tests %d",
			ref, claims, tests)
	}

	pc := obs.NewCollector()
	popts := DefaultOptions()
	popts.OrderPortfolio = 3
	popts.Tracer = pc
	pres, err := Route(d, popts)
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.NewCollector()
	sopts := WithOrderPolicy(DefaultOptions(), pres.Portfolio.Winner)
	sopts.Tracer = sc
	if _, err := Route(d, sopts); err != nil {
		t.Fatal(err)
	}
	for _, name := range edgeCounters {
		if p, s := pc.Counter(name), sc.Counter(name); p != s {
			t.Errorf("%s: portfolio run %d, solo run of the winner %d", name, p, s)
		}
	}
}

// TestObsRefutationCounters checks the goal-side flood's counters on a
// traced dense1 route: astar.refuted counts failed searches the flood
// ended, so it cannot exceed astar.failures, and astar.flood_nodes counts
// the nodes the flood took. dense1 has refuted searches, so both must be
// present and positive.
func TestObsRefutationCounters(t *testing.T) {
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
	c := obs.NewCollector()
	opts := DefaultOptions()
	opts.Tracer = c
	if _, err := Route(d, opts); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	for _, name := range []string{"astar.refuted", "astar.flood_nodes"} {
		if _, ok := snap.Counters[name]; !ok || c.Counter(name) <= 0 {
			t.Errorf("counter %s = %d, want it present and positive", name, c.Counter(name))
		}
	}
	if r, f := c.Counter("astar.refuted"), c.Counter("astar.failures"); r > f {
		t.Errorf("astar.refuted = %d, want at most astar.failures = %d", r, f)
	}
}

// TestObsJSONLReplayDense1 is the acceptance check: a traced dense1 run
// must emit at least one span per stage, at least one route event per
// routed net, and the LP convergence series, all recoverable from the
// JSONL stream.
func TestObsJSONLReplayDense1(t *testing.T) {
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
	var buf bytes.Buffer
	jl := obs.NewJSONL(&buf)
	c := obs.NewCollector()
	opts := DefaultOptions()
	opts.RipUpRounds = 1
	opts.Tracer = obs.Multi(jl, c)
	res, err := Route(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	checkStageInvariants(t, res, c)

	recs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	lpIters := 0
	routedNet := map[int]bool{}
	for _, r := range recs {
		switch {
		case r.T == "span":
			spans[r.Name]++
		case r.T == "event" && r.Name == "lp.iter":
			lpIters++
		case r.T == "event" && r.Name == "net.route" && r.Str("outcome") == "routed":
			routedNet[int(r.Num("net"))] = true
		}
	}
	for _, stage := range []string{"preprocess", "concurrent", "graph", "sequential", "ripup", "lp"} {
		if spans["stage:"+stage] < 1 {
			t.Errorf("trace has no span for stage %q", stage)
		}
	}
	for ni := range d.Nets {
		if res.Layout.Routed(ni) && !routedNet[ni] {
			t.Errorf("routed net %d has no routed net.route event in the trace", ni)
		}
	}
	if lpIters != res.LPIterations {
		t.Errorf("lp.iter series length = %d, want LPIterations %d", lpIters, res.LPIterations)
	}
	if res.LPIterations > 0 && lpIters == 0 {
		t.Error("no LP convergence series in the trace")
	}
}

func TestObsRipUpEvents(t *testing.T) {
	// The known-recoverable single-layer instance from TestRipUpRecoversNets.
	d, err := design.Generate(design.GenSpec{
		Name: "hunt", Chips: 3, IOPads: 43, BumpPads: 0, WireLayers: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	opts := DefaultOptions()
	opts.RipUpRounds = 2
	opts.Tracer = c
	res, err := Route(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RipUpRouted == 0 {
		t.Fatal("rip-up recovered nothing on the known-recoverable instance")
	}
	checkStageInvariants(t, res, c)
	if n := c.Counter("ripup.recovered"); n != int64(res.RipUpRouted) {
		t.Errorf("ripup.recovered counter = %d, want %d", n, res.RipUpRouted)
	}
	// Failed sequential attempts must be visible too: this instance leaves
	// nets unrouted before rip-up kicks in.
	if routedEvents(c, "sequential", "failed") == 0 {
		t.Error("no failed sequential net.route events on a congested instance")
	}
}
