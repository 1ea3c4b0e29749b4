// Package rdlroute is a from-scratch Go implementation of "Via-based
// Redistribution Layer Routing for InFO Packages with Irregular Pad
// Structures" (Wen, Cai, Hsu, Chang — DAC 2020): a pre-assignment router
// for via-based multi-chip multi-layer InFO wafer-level packages.
//
// The flow has five stages (paper Fig. 3): preprocessing of the fan-out
// region, weighted-MPSC-based concurrent routing, octagonal-tile routing
// graph construction with via insertion, sequential A*-search routing, and
// LP-based layout optimization. The package also ships the evaluation
// baseline Lin-ext, a Table-I benchmark generator, and a design-rule
// checker.
//
// Quick start:
//
//	d, _ := rdlroute.GenerateBenchmark("dense1")
//	res, err := rdlroute.Route(d, rdlroute.DefaultOptions())
//	if err != nil { ... }
//	fmt.Printf("routability %.1f%% wirelength %.0f\n",
//		res.Routability, res.Wirelength)
package rdlroute

import (
	"context"
	"io"

	"rdlroute/internal/baseline"
	"rdlroute/internal/codec"
	"rdlroute/internal/congest"
	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/eco"
	"rdlroute/internal/layout"
	"rdlroute/internal/metrics"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
	"rdlroute/internal/viz"
)

// Core data-model types.
type (
	// Design is a complete routing instance: chips, pads, nets, obstacles,
	// design rules and the RDL layer stack.
	Design = design.Design
	// Chip is a die whose shadow is a fan-in region.
	Chip = design.Chip
	// IOPad is a rectangular pad on the top RDL.
	IOPad = design.IOPad
	// BumpPad is an octagonal pad on the bottom RDL.
	BumpPad = design.BumpPad
	// Net is a pre-assigned pad pair.
	Net = design.Net
	// PadRef identifies a net endpoint.
	PadRef = design.PadRef
	// Rules carries the minimum-spacing, wire-width and via-width rules.
	Rules = design.Rules
	// Obstacle is a rectangular blockage on one wire layer.
	Obstacle = design.Obstacle
	// GenSpec parameterizes the benchmark generator.
	GenSpec = design.GenSpec
	// Stats summarizes a design like a Table-I row.
	Stats = design.Stats
)

// Routing types.
type (
	// Options tune the five-stage routing flow.
	Options = router.Options
	// Result carries routability, wirelength, runtime and per-stage
	// counters for one routing run.
	Result = router.Result
	// Layout is a (possibly partial) routing result.
	Layout = layout.Layout
	// WireRoute is one wire polyline of a net on one layer.
	WireRoute = layout.Route
	// Via is an octagonal inter-layer via.
	Via = layout.Via
	// Violation is one design-rule violation found by Check.
	Violation = drc.Violation
	// BaselineOptions tune the Lin-ext baseline flow.
	BaselineOptions = baseline.Options
	// BaselineResult carries the Lin-ext metrics.
	BaselineResult = baseline.Result
)

// Observability types. Set Options.Tracer (or BaselineOptions.Tracer) to
// receive stage spans, per-net route events, counters and distribution
// samples from a routing run; leave it nil for the zero-overhead default.
type (
	// Tracer receives spans, events, counters and observations.
	Tracer = obs.Tracer
	// Snapshot is the aggregated metrics view of a traced run
	// (Result.Obs); render it with WriteText or encoding/json.
	Snapshot = obs.Snapshot
	// Collector is the in-memory Tracer sink whose Snapshot method
	// aggregates everything it saw. Safe for concurrent use.
	Collector = obs.Collector
	// JSONLTracer streams every span and event as one JSON object per
	// line. Call Close (or Flush) when the run finishes.
	JSONLTracer = obs.JSONL
	// TraceRecord is one line of a JSONL trace.
	TraceRecord = obs.Record
	// TraceEvent is one event captured by a Collector.
	TraceEvent = obs.Event
)

// Production metrics types. Where a Collector aggregates one run into a
// Snapshot, a MetricsRegistry accumulates across runs into Prometheus-
// style series (counters, gauges, fixed-bucket histograms) with a
// byte-stable text exposition. A MetricsBridge is a Tracer that feeds a
// registry from routing runs: per-stage latency histograms, flow counter
// totals, event counts. Attaching one never changes routing results.
type (
	// MetricsRegistry holds named metric families; render with WriteText.
	MetricsRegistry = metrics.Registry
	// MetricsBridge adapts the Tracer interface onto a registry.
	MetricsBridge = metrics.Bridge
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMetricsBridge returns a Tracer recording flow activity into reg.
func NewMetricsBridge(reg *MetricsRegistry) *MetricsBridge { return metrics.NewBridge(reg) }

// NewCollector returns an empty in-memory trace collector.
func NewCollector() *Collector { return obs.NewCollector() }

// NewJSONLTracer returns a Tracer streaming JSONL records to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONL(w) }

// MultiTracer fans emissions out to every given sink (nil and disabled
// sinks are dropped; zero sinks yield the Nop tracer).
func MultiTracer(ts ...Tracer) Tracer { return obs.Multi(ts...) }

// ReadTrace parses a JSONL trace written by a JSONLTracer.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return obs.ReadJSONL(r) }

// DefaultOptions returns the paper's experimental configuration
// (α, β, γ, δ = 0.1, 1, 1, 2 and 30×30 global cells).
func DefaultOptions() Options { return router.DefaultOptions() }

// Route runs the five-stage via-based RDL routing flow on the design.
func Route(d *Design, opts Options) (*Result, error) { return router.Route(d, opts) }

// RouteContext is Route with cancellation and deadline support: the A*
// relax loops, the MPSC dynamic program and the LP pivot loops all poll
// ctx, so a cancelled or deadlined run stops promptly and returns an error
// wrapping context.Canceled or context.DeadlineExceeded. Aborted runs
// leave no shared state behind; a subsequent Route on the same design is
// unaffected.
func RouteContext(ctx context.Context, d *Design, opts Options) (*Result, error) {
	return router.RouteContext(ctx, d, opts)
}

// DefaultBaselineOptions returns the Lin-ext configuration used by the
// benchmark harness.
func DefaultBaselineOptions() BaselineOptions { return baseline.DefaultOptions() }

// RouteLinExt runs the Lin-ext baseline (Lin et al. ICCAD'16 concurrent
// routing extended with A* sequential routing; no flexible vias).
func RouteLinExt(d *Design, opts BaselineOptions) (*BaselineResult, error) {
	return baseline.Route(d, opts)
}

// RouteLinExtContext is RouteLinExt with cancellation and deadline
// support, mirroring RouteContext.
func RouteLinExtContext(ctx context.Context, d *Design, opts BaselineOptions) (*BaselineResult, error) {
	return baseline.RouteContext(ctx, d, opts)
}

// Check runs the design-rule checker on a layout and returns every
// violation (empty means clean).
func Check(l *Layout) []Violation { return drc.Check(l) }

// GenerateBenchmark builds one of the paper's benchmark circuits
// (dense1..dense5) with the published Table-I statistics.
func GenerateBenchmark(name string) (*Design, error) {
	spec, err := design.DenseSpec(name)
	if err != nil {
		return nil, err
	}
	return design.Generate(spec)
}

// BenchmarkSuite returns the generator specs of all five Table-I circuits.
func BenchmarkSuite() []GenSpec { return design.DenseSuite() }

// Generate builds a synthetic design from a generator spec.
func Generate(spec GenSpec) (*Design, error) { return design.Generate(spec) }

// RenderOptions tune SVG rendering of a layout.
type RenderOptions = viz.Options

// DefaultRenderOptions renders every layer at quarter scale.
func DefaultRenderOptions() RenderOptions { return viz.DefaultOptions() }

// RenderSVG writes the layout as a self-contained SVG image.
func RenderSVG(w io.Writer, l *Layout, opts RenderOptions) error {
	return viz.SVG(w, l, opts)
}

// CodecError is the typed decode failure of the JSON wire codec: recover
// it with errors.As and inspect Kind (syntax, schema, validate) and Path
// (the JSON path of the offending value, e.g. "nets[3].p1.index").
type CodecError = codec.Error

// JSON schema identifiers of the wire codec (version 1).
const (
	DesignSchemaV1  = codec.DesignSchema
	OptionsSchemaV1 = codec.OptionsSchema
	ResultSchemaV1  = codec.ResultSchema
	DeltaSchemaV1   = codec.DeltaSchema
)

// EncodeDesignJSON writes the design as an rdl-design/v1 JSON document.
// Encoding the same design twice yields identical bytes.
func EncodeDesignJSON(w io.Writer, d *Design) error { return codec.EncodeDesign(w, d) }

// DecodeDesignJSON reads an rdl-design/v1 document and returns a
// validated design; malformed payloads yield a *CodecError.
func DecodeDesignJSON(r io.Reader) (*Design, error) { return codec.DecodeDesign(r) }

// EncodeOptionsJSON writes the options as an rdl-options/v1 document.
func EncodeOptionsJSON(w io.Writer, opts Options) error { return codec.EncodeOptions(w, opts) }

// DecodeOptionsJSON reads an rdl-options/v1 document, overlaying it on
// DefaultOptions (absent fields keep their defaults).
func DecodeOptionsJSON(r io.Reader) (Options, error) { return codec.DecodeOptions(r) }

// EncodeResultJSON writes the result (metrics plus full layout geometry)
// as an rdl-result/v1 document.
func EncodeResultJSON(w io.Writer, res *Result) error { return codec.EncodeResult(w, res) }

// DecodeResultJSON reads an rdl-result/v1 document against the design it
// was computed on (matched by name; every reference is range-checked).
func DecodeResultJSON(r io.Reader, d *Design) (*Result, error) { return codec.DecodeResult(r, d) }

// CongestionMap is the per-global-cell track-utilization view of a layout.
type CongestionMap = congest.Map

// BuildCongestion computes the congestion map with a cells×cells grid.
func BuildCongestion(l *Layout, cells int) *CongestionMap { return congest.Build(l, cells) }

// DesignDelta is one ECO edit batch against a base design. Apply it with
// ApplyDelta, then route the edited design like any other.
type DesignDelta = eco.Delta

// ApplyDelta produces the edited design (the base is not mutated).
func ApplyDelta(base *Design, dl *DesignDelta) (*Design, error) { return eco.Apply(base, dl) }

// EncodeDesignDeltaJSON writes the delta as an rdl-design-delta/v1
// document; identical deltas encode to identical bytes.
func EncodeDesignDeltaJSON(w io.Writer, dl *DesignDelta) error {
	return codec.EncodeDesignDelta(w, dl)
}

// DecodeDesignDeltaJSON reads an rdl-design-delta/v1 document; malformed
// payloads yield a *CodecError.
func DecodeDesignDeltaJSON(r io.Reader) (*DesignDelta, error) { return codec.DecodeDesignDelta(r) }

// DesignContentHash is the content address deltas name their base design
// by: the sha256 (hex) of the design's canonical rdl-design/v1 encoding.
func DesignContentHash(d *Design) (string, error) { return codec.DesignHash(d) }
