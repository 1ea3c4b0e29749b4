package router

import (
	"bytes"
	"context"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/layout"
	"rdlroute/internal/obs"
)

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

// TestObsCorridorCounters checks the corridor-graph effort counters: one
// corridor search per stage-4 net, its expansions observed, and the tile
// adjacency tests and reach-mask rebuilds that kept the graph current
// reported beside them. Attaching the tracer must leave the routed
// result byte-identical to an untraced run.
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
	var traced, untraced bytes.Buffer
	if err := layout.Format(&traced, res.Layout); err != nil {
		t.Fatal(err)
	}
	if err := layout.Format(&untraced, bare.Layout); err != nil {
		t.Fatal(err)
	}
	if fp != bareFp || !bytes.Equal(traced.Bytes(), untraced.Bytes()) || res.Wirelength != bare.Wirelength {
		t.Errorf("tracer changed the result: fingerprint %x vs %x, wirelength %v vs %v, layout bytes equal %v",
			fp, bareFp, res.Wirelength, bare.Wirelength, bytes.Equal(traced.Bytes(), untraced.Bytes()))
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
	for _, name := range []string{"ctile.reach_rebuilds", "ctile.adjacency_tests"} {
		if _, ok := snap.Counters[name]; !ok || c.Counter(name) <= 0 {
			t.Errorf("counter %s = %d, want it present and positive", name, c.Counter(name))
		}
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

	// The speculative scheduler must emit the identical event stream: a
	// failed speculative attempt produces its net.route outcome=failed
	// event exactly once — at commit or at the live replay, never both.
	cs := obs.NewCollector()
	sopts := opts
	sopts.Speculative = true
	sopts.Tracer = cs
	ress, err := Route(d, sopts)
	if err != nil {
		t.Fatal(err)
	}
	checkStageInvariants(t, ress, cs)
	type netEv struct {
		net           int
		outcome, mode string
	}
	seqStream := func(col *obs.Collector) []netEv {
		var out []netEv
		for _, e := range col.Events("net.route") {
			if e.Str("stage") == "sequential" {
				out = append(out, netEv{int(e.Num("net")), e.Str("outcome"), e.Str("mode")})
			}
		}
		return out
	}
	want, got := seqStream(c), seqStream(cs)
	if len(got) != len(want) {
		t.Fatalf("speculative run emitted %d sequential net.route events, sequential run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequential net.route stream diverges at %d: speculative %v, sequential %v", i, got[i], want[i])
		}
	}
	if n := routedEvents(cs, "sequential", "failed"); n != routedEvents(c, "sequential", "failed") {
		t.Errorf("speculative run emitted %d failed sequential events, sequential run %d (abort+replay double-emit?)",
			n, routedEvents(c, "sequential", "failed"))
	}
}
