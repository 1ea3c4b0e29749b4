// Package router implements the paper's five-stage RDL routing flow
// (Figure 3): Preprocessing, Weighted-MPSC-based Concurrent Routing,
// Routing Graph Construction (octagonal tiles + via insertion), Sequential
// A*-search Routing, and LP-based Layout Optimization.
package router

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rdlroute/internal/ctile"
	"rdlroute/internal/design"
	"rdlroute/internal/fanout"
	"rdlroute/internal/geom"
	"rdlroute/internal/lattice"
	"rdlroute/internal/layout"
	"rdlroute/internal/lpopt"
	"rdlroute/internal/mpsc"
	"rdlroute/internal/obs"
	"rdlroute/internal/par"
)

// Options tune the flow. The zero value is not usable; call
// DefaultOptions and override as needed.
type Options struct {
	Weights     fanout.WeightParams
	GlobalCells int   // global-cell grid per axis (the paper uses 30)
	Pitch       int64 // detailed-routing lattice pitch
	ViaCost     float64

	// Ablation switches (all true in the paper's flow).
	UseWeights   bool // Eq. (2) chord weights (false → unit weights)
	EnableLP     bool // stage 5 LP-based layout optimization
	EnableVias   bool // stage 3 via insertion (false → 2D corridors only)
	EnableStage2 bool // weighted-MPSC concurrent routing

	PeripheralDist int64
	LPMaxIters     int

	// RipUpRounds enables the rip-up-and-reroute extension (not part of
	// the paper's flow): after sequential routing, up to this many rounds
	// of ripping blocking nets and re-routing. 0 disables it.
	RipUpRounds int

	// NetOrder selects the sequential-stage routing order.
	NetOrder NetOrder

	// OrderPortfolio, when positive, races the first OrderPortfolio
	// policies of the ordering registry (policy.go) through stage 4: each
	// candidate runs the full sequential loop (plus rip-up, when enabled)
	// on its own scratch lattice/model clone across the worker pool, a
	// fixed total rule picks the winner (routed nets desc, wirelength
	// asc, lowest policy index), and only the winner is replayed on the
	// real lattice with the real tracer/memo attached. The result is
	// byte-identical at any worker count and equals a solo run of the
	// winning policy. Values above MaxPortfolio are rejected; 0 disables
	// racing and stage 4 uses NetOrder directly. When racing is on,
	// NetOrder is ignored (policy 0, shortest-first, anchors the
	// portfolio as the baseline candidate).
	OrderPortfolio int

	// soloPolicy pins stage 4 to one registry policy, bypassing both
	// NetOrder and OrderPortfolio. Set via WithOrderPolicy; the portfolio
	// racer uses it internally to run candidates and replay the winner,
	// and qa uses it for the escalation ladder and the winner-equals-solo
	// oracle.
	soloPolicy *int

	// Workers bounds the worker pool the flow's data-parallel stages fan
	// out on: preprocessing's grid graph and candidate construction, the
	// stage-2 region-mask prebuild, the stage-3 tile warm-up and the
	// congested-order overlap count. 0 means GOMAXPROCS, 1 forces the
	// plain sequential path. Results are byte-identical at every value —
	// the qa determinism matrix holds the flow to that contract.
	Workers int

	// Speculative enables the speculative stage-4 scheduler: batches of
	// sequential-stage nets are routed concurrently on the worker pool
	// against a frozen lattice, and a serial commit arbiter accepts each
	// net's speculative result only when footprint proofs show the
	// sequential loop would have derived it bit for bit — everything else
	// replays live in exact sequential position. Committed results are
	// therefore byte-identical to the plain sequential loop at any worker
	// count (the qa speculative-equivalence matrix enforces fingerprint,
	// metrics and encoded-result equality); only the spec.* counters
	// reveal speculation happened. With Workers == 1 speculation still
	// runs (inline) and must still match — that is the cheapest
	// equivalence check the harness has.
	Speculative bool

	// Tracer, when non-nil, receives stage spans (tagged with pprof
	// labels), per-net route events, counters and distribution samples
	// from the whole flow. Nil means the zero-overhead Nop tracer: no obs
	// object is allocated on the hot path.
	//
	// Tracers are strictly observational: the flow never reads a tracer,
	// so attaching any sink — Collector, JSONL stream, metrics.Bridge, or
	// a Multi fan-out of all three — yields routing results byte-identical
	// to an untraced run. The qa harness enforces this
	// (TestMetricsBridgeDeterminism) alongside the worker matrix.
	Tracer obs.Tracer

	// SearchMemo, when non-nil, records this run's A* searches and serves
	// provably-unchanged ones from a previous run's recordings (see
	// internal/lattice memo.go). Like Tracer it cannot change results —
	// a memo hit is only taken when the identical search would be
	// re-derived — so routes stay byte-identical to an un-memoized run;
	// it is not part of the wire format and never serialized.
	SearchMemo *lattice.Memo

	// CorridorMemo is SearchMemo's counterpart for the stage-4 tile-graph
	// corridor searches (see internal/ctile memo.go). Same contract:
	// strictly observational, never serialized.
	CorridorMemo *ctile.CorridorMemo
}

// NetOrder is a sequential-stage net ordering strategy.
type NetOrder uint8

// Net ordering strategies.
const (
	// OrderShortest routes short nets first (the default; cheap nets claim
	// resources that barely constrain others).
	OrderShortest NetOrder = iota
	// OrderLongest routes long nets first.
	OrderLongest
	// OrderCongested routes nets whose bounding boxes overlap the most
	// other nets first (hardest-first).
	OrderCongested
)

// DefaultOptions returns the paper's experimental configuration.
func DefaultOptions() Options {
	return Options{
		Weights:        fanout.DefaultWeightParams(),
		GlobalCells:    30,
		Pitch:          design.Grid,
		ViaCost:        0, // lattice default (3·pitch)
		UseWeights:     true,
		EnableLP:       true,
		EnableVias:     true,
		EnableStage2:   true,
		PeripheralDist: 36,
		LPMaxIters:     50,
	}
}

// Result is the routing outcome with the metrics Table I reports plus
// per-stage counters.
type Result struct {
	Layout      *layout.Layout
	Routability float64 // percent
	Wirelength  float64 // routed nets only (paper's metric)
	RoutedNets  int
	TotalNets   int

	ConcurrentRouted int // nets completed in stage 2
	SequentialRouted int // nets completed in stage 4
	CorridorRouted   int // stage-4 nets that used a tile corridor
	FallbackRouted   int // stage-4 nets routed without a corridor

	RipUpRouted int // nets recovered by the rip-up extension

	WirelengthBeforeLP float64
	LPIterations       int
	LPComponents       int

	TileCount int // tiles in the stage-3 routing graph
	Runtime   time.Duration

	// Obs is the aggregated metrics snapshot of this run, present when
	// Options.Tracer can produce one (the in-memory Collector, or a Multi
	// containing one); nil otherwise.
	Obs *obs.Snapshot

	// Portfolio describes the ordering-portfolio race when
	// Options.OrderPortfolio was positive; nil otherwise. Like Obs it is
	// diagnostic output and is not part of the rdl-result/v1 wire format —
	// encoded result bytes stay comparable across portfolio and solo runs.
	Portfolio *PortfolioReport
}

// Route runs the full flow on the design.
func Route(d *design.Design, opts Options) (*Result, error) {
	return RouteContext(context.Background(), d, opts)
}

// RouteContext is Route with cancellation: when ctx is cancelled or its
// deadline passes, the flow stops at the next checkpoint — the A* relax
// loops, the MPSC DP and the LP pivot loops all poll ctx — and returns an
// error wrapping context.Canceled or context.DeadlineExceeded. The partial
// layout is discarded; no lattice state escapes, so a timed-out job can
// never corrupt a later run.
func RouteContext(ctx context.Context, d *design.Design, opts Options) (*Result, error) {
	res, _, err := route(ctx, d, opts)
	return res, err
}

// ctxErr returns the flow-level error for a cancelled context, wrapped so
// errors.Is(err, context.Canceled / context.DeadlineExceeded) holds.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("router: %w", err)
	}
	return nil
}

// route is RouteContext plus the lattice the flow ended on — after rip-up
// this is the rebuilt lattice of the accepted layout, not the one the flow
// started with. Exposed separately so tests can assert lattice occupancy
// matches the returned layout.
func route(ctx context.Context, d *design.Design, opts Options) (*Result, *lattice.Lattice, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("router: %w", err)
	}
	if opts.Pitch == 0 {
		opts.Pitch = design.Grid
	}
	if opts.GlobalCells == 0 {
		opts.GlobalCells = 30
	}
	if opts.OrderPortfolio < 0 || opts.OrderPortfolio > MaxPortfolio {
		return nil, nil, fmt.Errorf("router: order portfolio %d out of range [0, %d]", opts.OrderPortfolio, MaxPortfolio)
	}
	if opts.soloPolicy != nil && (*opts.soloPolicy < 0 || *opts.soloPolicy >= MaxPortfolio) {
		return nil, nil, fmt.Errorf("router: solo ordering policy %d out of range [0, %d)", *opts.soloPolicy, MaxPortfolio)
	}

	tr := obs.Or(opts.Tracer)
	la, err := lattice.New(d, opts.Pitch)
	if err != nil {
		return nil, nil, err
	}
	la.SetTracer(tr)
	la.AttachMemo(opts.SearchMemo)
	if opts.Speculative && opts.SearchMemo == nil {
		// Speculative commit validation needs the journal's footprint
		// hashes even when no cross-run memo was supplied.
		la.AttachJournal()
	}
	lay := layout.New(d)
	res := &Result{Layout: lay, TotalNets: len(d.Nets)}

	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}

	// Stage 1: Preprocessing.
	end := obs.Stage(tr, "preprocess", obs.String("design", d.Name))
	analysis, err := fanout.Analyze(d, fanout.Config{
		PeripheralDist: opts.PeripheralDist,
		TrackPitch:     opts.Pitch,
		Workers:        opts.Workers,
	})
	end()
	if err != nil {
		return nil, nil, err
	}

	// Stage 2: Weighted-MPSC-based concurrent routing.
	if opts.EnableStage2 {
		end = obs.Stage(tr, "concurrent")
		routed, err := concurrentRoute(ctx, d, analysis, la, lay, opts, tr)
		res.ConcurrentRouted = routed
		end(obs.Int("routed", res.ConcurrentRouted))
		if err != nil {
			return nil, nil, err
		}
	}

	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}

	// Stage 3: Routing graph construction (octagonal tiles, via insertion).
	end = obs.Stage(tr, "graph")
	model := ctile.NewModel(d, opts.GlobalCells)
	model.SetTracer(tr)
	model.AttachMemo(opts.CorridorMemo)
	if opts.Speculative && opts.CorridorMemo == nil {
		model.AttachJournal()
	}
	seedModel(model, lay)
	// Warm every (layer, cell) tile decomposition on the worker pool. The
	// per-cell builds are pure functions of the seeded blockers, and the
	// stage ends by counting tiles in every cell anyway, so the warm-up
	// does no extra work — it only moves it onto parallel workers.
	if par.Workers(opts.Workers) > 1 {
		if err := model.BuildAll(ctx, opts.Workers); err != nil {
			return nil, nil, fmt.Errorf("router: %w", err)
		}
	}
	var sites []ctile.ViaSite
	if opts.EnableVias {
		sites = model.InsertVias()
	}
	for l := 0; l < d.WireLayers; l++ {
		res.TileCount += model.TileCount(l)
	}
	model.TraceStats(tr, sites)
	end(obs.Int("tiles", res.TileCount), obs.Int("via_sites", len(sites)))

	// Stage 4: Sequential A*-search routing on the tile graph. The
	// speculative scheduler commits byte-identical results, so the stage
	// keeps its name and counters either way.
	end = obs.Stage(tr, "sequential")
	var seqErr error
	switch {
	case opts.OrderPortfolio > 0 && opts.soloPolicy == nil:
		// Portfolio racing: candidates run silently on scratch clones,
		// then the winner is replayed here on the real lattice. Pin the
		// rest of the flow (the rip-up rounds below) to the winning
		// policy so the whole run stays byte-identical to a solo run of
		// that policy.
		var win int
		win, seqErr = portfolioRoute(ctx, d, model, sites, la, lay, opts, res, tr)
		if seqErr == nil {
			opts.soloPolicy = &win
			opts.OrderPortfolio = 0
		}
	case opts.Speculative:
		seqErr = speculativeRoute(ctx, d, model, sites, la, lay, opts, res, tr)
	default:
		seqErr = sequentialRoute(ctx, d, model, sites, la, lay, opts, res, tr)
	}
	model.FlushTrace()
	end(obs.Int("routed", res.SequentialRouted),
		obs.Int("corridor", res.CorridorRouted),
		obs.Int("fallback", res.FallbackRouted))
	if seqErr != nil {
		return nil, nil, seqErr
	}

	// Extension: rip-up and re-route for stubborn nets. ripUpReroute hands
	// back the lattice matching the accepted layout — when a candidate was
	// accepted that is a rebuilt lattice, and dropping it here would leave
	// `la` describing occupancy of routes the layout no longer contains.
	if opts.RipUpRounds > 0 {
		end = obs.Stage(tr, "ripup")
		res.RipUpRouted, la = ripUpReroute(ctx, d, la, lay, opts, opts.RipUpRounds, tr)
		end(obs.Int("recovered", res.RipUpRouted))
		if err := ctxErr(ctx); err != nil {
			return nil, nil, err
		}
	}

	// Stage 5: LP-based layout optimization.
	res.WirelengthBeforeLP = lay.Wirelength()
	if opts.EnableLP {
		end = obs.Stage(tr, "lp")
		stats := lpopt.Optimize(lay, lpopt.Options{MaxIters: opts.LPMaxIters, Tracer: tr, Ctx: ctx})
		res.LPIterations = stats.Iterations
		res.LPComponents = stats.Components
		end(obs.Int("iterations", stats.Iterations),
			obs.Int("components", stats.Components))
		if stats.Cancelled {
			return nil, nil, ctxErr(ctx)
		}
	}

	res.RoutedNets = lay.RoutedCount()
	res.Routability = lay.Routability()
	res.Wirelength = lay.Wirelength()
	res.Runtime = time.Since(start)
	if tr.Enabled() {
		tr.Count("router.nets_total", int64(res.TotalNets))
		tr.Count("router.nets_routed", int64(res.RoutedNets))
		tr.Event("route.done",
			obs.String("design", d.Name),
			obs.Float("routability", res.Routability),
			obs.Float("wirelength", res.Wirelength),
			obs.Float("runtime_ms", float64(res.Runtime.Nanoseconds())/1e6))
		if s, ok := tr.(obs.Snapshotter); ok {
			res.Obs = s.Snapshot()
		}
	}
	return res, la, nil
}

// concurrentRoute performs per-layer weighted-MPSC layer assignment and
// concurrent detailed routing in the fan-out region. It returns the number
// of nets routed, stopping with ctx's error at the first cancelled
// checkpoint (the MPSC DP and every per-net search poll ctx).
func concurrentRoute(ctx context.Context, d *design.Design, a *fanout.Analysis, la *lattice.Lattice, lay *layout.Layout, opts Options, tr obs.Tracer) (int, error) {
	consumed := map[int]bool{}
	routed := 0
	weights := opts.Weights
	if !opts.UseWeights {
		weights = fanout.WeightParams{Alpha: 0, Beta: 0, Gamma: 0, Delta: 2}
	}
	for l := 0; l < d.WireLayers; l++ {
		chords := a.Chords(weights, consumed)
		if !opts.UseWeights {
			for i := range chords {
				chords[i].W = 1
			}
		}
		if len(chords) == 0 {
			break
		}
		picked, _, err := mpsc.MaxPlanarSubsetTracedCtx(ctx, a.CircleLen, chords, tr, obs.Int("layer", l))
		if err != nil {
			return routed, fmt.Errorf("router: %w", err)
		}
		// Route inner (short-span) chords first so nested nets claim the
		// tracks nearest their pads. Ties break on stable net identity so
		// that editing one net's pads cannot reshuffle the commit order of
		// unrelated equal-span nets (incremental reroutes depend on
		// unchanged nets keeping their relative order).
		sort.Slice(picked, func(i, j int) bool {
			si, sj := chordSpan(chords, picked[i]), chordSpan(chords, picked[j])
			if si != sj {
				return si < sj
			}
			idi, idj := d.Nets[chords[picked[i]].Tag].ID, d.Nets[chords[picked[j]].Tag].ID
			if idi != idj {
				return idi < idj
			}
			return chords[picked[i]].Tag < chords[picked[j]].Tag
		})
		// Commit the picked nets in order, prebuilding their region masks on
		// the worker pool in bounded batches ahead of the commit loop. Each
		// mask depends only on static design geometry and the net's own
		// search window — never on earlier commits — so prebuilding cannot
		// change any route; batching (a few masks per worker) caps the
		// memory held in flight. With one worker the masks are built inline
		// in the loop, the path this one must stay byte-identical to.
		workers := par.Workers(opts.Workers)
		batch := 1
		if workers > 1 {
			batch = 4 * workers
		}
		for lo := 0; lo < len(picked); lo += batch {
			hi := min(lo+batch, len(picked))
			var masks []*lattice.RegionMask
			if workers > 1 {
				var err error
				masks, err = par.Map(ctx, workers, hi-lo, func(k int) (*lattice.RegionMask, error) {
					cand := a.Candidates[chords[picked[lo+k]].Tag]
					n := d.Nets[cand.Net]
					return concurrentMask(d, la, d.IOPads[n.P1.Index], d.IOPads[n.P2.Index], l), nil
				})
				if err != nil {
					return routed, fmt.Errorf("router: %w", err)
				}
			}
			for k := lo; k < hi; k++ {
				if err := ctxErr(ctx); err != nil {
					return routed, err
				}
				ci := chords[picked[k]].Tag
				cand := a.Candidates[ci]
				var region *lattice.RegionMask
				if masks != nil {
					region = masks[k-lo]
				}
				if tryConcurrentNet(ctx, d, la, lay, cand, l, region, opts, tr) {
					consumed[ci] = true
					routed++
				}
			}
		}
		a.RecomputeCongestion(consumed)
	}
	return routed, nil
}

func chordSpan(chords []mpsc.Chord, idx int) int {
	c := chords[idx]
	s := c.B - c.A
	if s < 0 {
		s = -s
	}
	return s
}

// tryConcurrentNet routes one MPSC-selected net on wire layer l: via
// stacks at the pads when l > 0, then a single-layer wire through the
// fan-out region (plus the net's own fan-in regions). region, when
// non-nil, is the net's prebuilt concurrentMask; nil builds it here.
func tryConcurrentNet(ctx context.Context, d *design.Design, la *lattice.Lattice, lay *layout.Layout, cand fanout.Candidate, l int, region *lattice.RegionMask, opts Options, tr obs.Tracer) bool {
	net := cand.Net
	n := d.Nets[net]
	p1 := d.IOPads[n.P1.Index]
	p2 := d.IOPads[n.P2.Index]
	if l > 0 {
		if !la.StackFree(p1.Center, 0, l, net) || !la.StackFree(p2.Center, 0, l, net) {
			return false
		}
	}
	mask := make([]bool, d.WireLayers)
	mask[l] = true
	if region == nil {
		region = concurrentMask(d, la, p1, p2, l)
	}
	var st lattice.SearchStats
	req := lattice.Request{
		Net: net, From: p1.Center, To: p2.Center,
		FromLayer: l, ToLayer: l,
		LayerMask: mask, RegionMask: region, ViaCost: opts.ViaCost,
		Ctx: ctx,
	}
	if tr.Enabled() {
		req.Stats = &st
	}
	path, _, ok := la.Route(req)
	if !ok {
		return false
	}
	if l > 0 {
		la.CommitStack(p1.Center, 0, l, net)
		la.CommitStack(p2.Center, 0, l, net)
		lay.AddStack(net, p1.Center, 0, l)
		lay.AddStack(net, p2.Center, 0, l)
	}
	la.Commit(path, net)
	lay.AddPath(net, path)
	lay.MarkRouted(net)
	if tr.Enabled() {
		emitNetEvent(tr, net, "concurrent", "layer", l, path, &st, true)
	}
	return true
}

// emitNetEvent publishes one per-net route event: the net, the stage that
// completed (or gave up on) it, the routing mode ("corridor" when a tile
// corridor constrained the search, "fallback" for unrestricted search,
// "layer" for single-layer concurrent routing), the A* effort, and the
// realized path's step count, octilinear length and via count. Callers
// gate on tr.Enabled().
func emitNetEvent(tr obs.Tracer, net int, stage, mode string, layer int, path []lattice.PathStep, st *lattice.SearchStats, ok bool) {
	wl := 0.0
	vias := 0
	for k := 0; k+1 < len(path); k++ {
		a, b := path[k], path[k+1]
		if a.Layer == b.Layer {
			wl += geom.OctDist(a.Pt, b.Pt)
		} else {
			vias++
		}
	}
	outcome := "routed"
	if !ok {
		outcome = "failed"
	}
	tr.Event("net.route",
		obs.Int("net", net),
		obs.String("stage", stage),
		obs.String("mode", mode),
		obs.Int("layer", layer),
		obs.String("outcome", outcome),
		obs.Int("expanded", st.NodesExpanded),
		obs.Int("visited", st.NodesVisited),
		obs.Int("steps", len(path)),
		obs.Int("vias", vias),
		obs.Float("wl", wl))
	if ok {
		tr.Observe("net.wirelength", wl)
		tr.Observe("net.vias", float64(vias))
	}
}

// seedModel loads the committed layout geometry into the tile model.
func seedModel(m *ctile.Model, lay *layout.Layout) {
	for i := range lay.Routes {
		r := &lay.Routes[i]
		r.Segments(func(s geom.Segment) { m.AddWire(r.Layer, s) })
	}
	for _, v := range lay.Vias {
		m.AddVia(v.Slab, v.Center)
	}
}

// seqJob is one stage-4 work item: a net awaiting sequential routing plus
// the sort keys of the configured net order.
type seqJob struct {
	net     int
	direct  float64
	bbox    geom.Rect
	overlap int
}

// buildSeqJobs collects the nets stage 4 must route and sorts them into
// the configured commit order — the order both the sequential loop and
// the speculative scheduler's arbiter are bound to. The ordering itself
// comes from the policy registry (policy.go): an explicit solo pin set
// by WithOrderPolicy wins, otherwise Options.NetOrder selects among the
// registry's first three entries.
func buildSeqJobs(ctx context.Context, d *design.Design, lay *layout.Layout, opts Options) ([]seqJob, error) {
	var jobs []seqJob
	for ni := range d.Nets {
		if lay.Routed(ni) {
			continue
		}
		nn := d.Nets[ni]
		p1, p2 := d.PadCenter(nn.P1), d.PadCenter(nn.P2)
		jobs = append(jobs, seqJob{net: ni, direct: geom.OctDist(p1, p2), bbox: geom.RectOf(p1, p2)})
	}
	if err := policyForOptions(opts).order(ctx, d, jobs, opts.Workers); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	return jobs, nil
}

// seqViaCost resolves the stage-4 corridor-search via cost.
func seqViaCost(opts Options) float64 {
	if opts.ViaCost != 0 {
		return opts.ViaCost
	}
	return 3 * float64(opts.Pitch)
}

// sequentialRoute completes the remaining nets with tile-graph corridors
// realized on the lattice, falling back to unrestricted multi-layer search.
// It stops with ctx's error at the first cancelled per-net checkpoint.
func sequentialRoute(ctx context.Context, d *design.Design, model *ctile.Model, sites []ctile.ViaSite, la *lattice.Lattice, lay *layout.Layout, opts Options, res *Result, tr obs.Tracer) error {
	jobs, err := buildSeqJobs(ctx, d, lay, opts)
	if err != nil {
		return err
	}
	viaCost := seqViaCost(opts)
	for _, jb := range jobs {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		routeNetLive(ctx, d, model, sites, la, lay, opts, res, tr, jb.net, viaCost)
	}
	return nil
}

// routeNetLive is the sequential stage's per-net body: corridor search,
// masked A*, unrestricted fallback, the route event, and on success the
// commit. The speculative scheduler replays aborted nets through this
// exact function, so it IS the definition of stage-4 behavior.
func routeNetLive(ctx context.Context, d *design.Design, model *ctile.Model, sites []ctile.ViaSite, la *lattice.Lattice, lay *layout.Layout, opts Options, res *Result, tr obs.Tracer, net int, viaCost float64) {
	traced := tr.Enabled()
	nn := d.Nets[net]
	from, fromLayer := terminal(d, nn.P1)
	to, toLayer := terminal(d, nn.P2)

	var path []lattice.PathStep
	var ok bool
	var corSt, fbSt lattice.SearchStats
	mode := "fallback"
	corridor, cok := model.FindCorridor(from, fromLayer, to, toLayer, sites, viaCost)
	if cok {
		region := corridorMask(la, model, corridor, opts.Pitch)
		req := lattice.Request{
			Net: net, From: from, To: to,
			FromLayer: fromLayer, ToLayer: toLayer,
			RegionMask: region, ViaCost: opts.ViaCost,
			Ctx: ctx,
		}
		if traced {
			req.Stats = &corSt
		}
		path, _, ok = la.Route(req)
		if ok {
			mode = "corridor"
			res.CorridorRouted++
		}
	}
	if !ok {
		req := lattice.Request{
			Net: net, From: from, To: to,
			FromLayer: fromLayer, ToLayer: toLayer,
			ViaCost: opts.ViaCost,
			Ctx:     ctx,
		}
		if traced {
			req.Stats = &fbSt
		}
		path, _, ok = la.Route(req)
		if ok {
			res.FallbackRouted++
		}
	}
	if traced {
		// Report the combined effort of both attempts.
		corSt.NodesExpanded += fbSt.NodesExpanded
		corSt.NodesVisited += fbSt.NodesVisited
		emitNetEvent(tr, net, "sequential", mode, fromLayer, path, &corSt, ok)
	}
	if !ok {
		return
	}
	commitSeqPath(model, la, lay, res, net, path)
}

// commitSeqPath applies one stage-4 net's committed path: lattice
// occupancy, layout geometry, counters, and the incremental tile-model
// update re-partitioning the frames the new net crossed.
func commitSeqPath(model *ctile.Model, la *lattice.Lattice, lay *layout.Layout, res *Result, net int, path []lattice.PathStep) {
	la.Commit(path, net)
	lay.AddPath(net, path)
	lay.MarkRouted(net)
	res.SequentialRouted++
	for k := 0; k+1 < len(path); k++ {
		a, b := path[k], path[k+1]
		if a.Layer == b.Layer {
			if !a.Pt.Eq(b.Pt) {
				model.AddWire(a.Layer, geom.Seg(a.Pt, b.Pt))
			}
		} else {
			slab := a.Layer
			if b.Layer < slab {
				slab = b.Layer
			}
			model.AddVia(slab, a.Pt)
		}
	}
}

func terminal(d *design.Design, r design.PadRef) (geom.Point, int) {
	if r.Kind == design.IOKind {
		return d.IOPads[r.Index].Center, 0
	}
	return d.BumpPads[r.Index].Center, d.WireLayers - 1
}

// corridorMask rasterizes a tile path into a per-layer lattice bitmap at
// cell granularity: each corridor tile admits its whole grid cell, grown so
// the wire centerline has room near cell borders. Rasterizing once per net
// replaces the seed's per-probe closure that linearly scanned every
// corridor octagon for every A* neighbor — the sequential stage's hot path.
//
// Masking over the fixed cell geometry instead of the exact tile octagons
// keeps the mask — and with it the masked search's result — insensitive to
// within-cell tile re-partitioning: an edit that shifts an unrelated
// clearance band inside a crossed cell no longer changes this net's search
// region unless the corridor's cell sequence itself changes. Without this,
// a one-pad ECO edit cascades tile-shape noise into the masks (and thus
// the equal-cost path choices) of most nets routed after it. The mask is
// still a corridor — the union of the global route's crossed cells — per
// the paper's restriction of detailed routing to the global region.
func corridorMask(la *lattice.Lattice, model *ctile.Model, corridor []ctile.TileRef, pitch int64) *lattice.RegionMask {
	m := la.NewRegionMask()
	for _, ref := range corridor {
		m.AllowRect(ref.Layer, model.CellBox(ref.Cell).Expand(3*pitch))
	}
	return m
}

// concurrentMask rasterizes the stage-2 region predicate — the fan-out
// region plus the net's own chips, minus foreign fan-in regions — onto
// the net's single assigned layer, bounded to the search window the
// lattice will use for this net anyway.
func concurrentMask(d *design.Design, la *lattice.Lattice, p1, p2 design.IOPad, l int) *lattice.RegionMask {
	m := la.NewRegionMask()
	i0, j0, i1, j1 := la.SearchWindow(p1.Center, p2.Center, 0)
	m.AllowWindow(l, i0, j0, i1, j1)
	for ci := range d.Chips {
		if ci != p1.Chip && ci != p2.Chip {
			m.ClearRect(l, d.Chips[ci].Box)
		}
	}
	// Re-allow the net's own chips in case a foreign clear overlapped
	// them (chips never overlap today; this keeps the mask equivalent to
	// the old closure, where own-chip membership won).
	for _, ci := range []int{p1.Chip, p2.Chip} {
		if ci >= 0 {
			m.AllowRect(l, d.Chips[ci].Box)
		}
	}
	return m
}
