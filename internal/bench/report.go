package bench

import (
	"encoding/json"
	"io"
	"strings"

	"rdlroute/internal/obs"
)

// ReportSchema identifies the rdlbench JSON report format. Bump it when a
// field changes meaning; adding fields is backward-compatible.
const ReportSchema = "rdlbench/v1"

// Report is the machine-readable form of one rdlbench invocation: every
// experiment the run performed, keyed by section; absent sections were not
// requested. EXPERIMENTS.md documents the schema.
type Report struct {
	Schema    string         `json:"schema"`
	Circuits  []string       `json:"circuits,omitempty"`
	Table1    []Table1JSON   `json:"table1,omitempty"`
	Fig2      *Fig2Result    `json:"fig2,omitempty"`
	Fig5      *Fig5Result    `json:"fig5,omitempty"`
	Fig7      []Fig7Row      `json:"fig7,omitempty"`
	LPIters   []LPIterRow    `json:"lp_iters,omitempty"`
	GraphSize []GraphSizeRow `json:"graph_size,omitempty"`
	Quality   []QualityRow   `json:"quality,omitempty"`
	Ablations []AblationRow  `json:"ablations,omitempty"`
	Scaling   []ScalingRow   `json:"scaling,omitempty"`
}

// Table1JSON is one Table-I comparison row flattened for serialization.
type Table1JSON struct {
	Circuit    string `json:"circuit"`
	Chips      int    `json:"chips"`
	Q          int    `json:"io_pads"`
	G          int    `json:"bump_pads"`
	N          int    `json:"nets"`
	WireLayers int    `json:"wire_layers"`
	ViaLayers  int    `json:"via_layers"`

	// Status is "ok", or "timeout" when a flow exceeded the -timeout
	// budget; a timed-out flow's metrics are zero.
	Status string `json:"status"`

	OursRoutability float64 `json:"ours_routability"`
	OursWirelength  float64 `json:"ours_wirelength"`
	OursSeconds     float64 `json:"ours_seconds"`
	OursDRC         int     `json:"ours_drc_violations"`

	LinRoutability float64 `json:"lin_routability"`
	LinWirelength  float64 `json:"lin_wirelength"`
	LinSeconds     float64 `json:"lin_seconds"`
	LinDRC         int     `json:"lin_drc_violations"`

	// Per-stage wall-clock of our flow (keys: preprocess, concurrent,
	// graph, sequential, ripup, lp) and aggregate A* effort, extracted
	// from the run's obs snapshot. Present since PR 2; absent when the
	// run carried no snapshotting tracer.
	OursStageMs       map[string]float64 `json:"ours_stage_ms,omitempty"`
	OursAstarSearches int64              `json:"ours_astar_searches,omitempty"`
	OursAstarExpanded float64            `json:"ours_astar_expanded,omitempty"`
	OursAstarVisited  float64            `json:"ours_astar_visited,omitempty"`

	// OursObs is the run's full observability snapshot — every counter
	// (A*, MPSC, ctile, LP, rip-up) and distribution the flow emitted,
	// not just the headline extracts above. Present since PR 6.
	OursObs *obs.Snapshot `json:"ours_obs,omitempty"`
}

// JSON flattens the row for the report.
func (r *Table1Row) JSON() Table1JSON {
	s := r.Stats
	j := Table1JSON{
		Circuit: s.Name, Chips: s.Chips, Q: s.Q, G: s.G, N: s.N,
		WireLayers: s.WireLayers, ViaLayers: s.ViaLayers,
		Status: r.Status,
	}
	if j.Status == "" {
		j.Status = "ok"
	}
	if r.Ours != nil {
		j.OursRoutability = r.Ours.Routability
		j.OursWirelength = r.Ours.Wirelength
		j.OursSeconds = r.Ours.Runtime.Seconds()
		j.OursDRC = r.OursDRC
	}
	if r.Lin != nil {
		j.LinRoutability = r.Lin.Routability
		j.LinWirelength = r.Lin.Wirelength
		j.LinSeconds = r.Lin.Runtime.Seconds()
		j.LinDRC = r.LinDRC
	}
	if r.Ours == nil {
		return j
	}
	if o := r.Ours.Obs; o != nil {
		j.OursStageMs = make(map[string]float64)
		for _, sp := range o.Spans {
			if name, ok := strings.CutPrefix(sp.Name, "stage:"); ok {
				j.OursStageMs[name] += sp.TotalMs
			}
		}
		j.OursAstarSearches = o.Counters["astar.searches"]
		j.OursAstarExpanded = o.Dists["astar.expanded"].Sum
		j.OursAstarVisited = o.Dists["astar.visited"].Sum
		j.OursObs = o
	}
	return j
}

// WriteJSON writes the report as indented JSON, stamping the schema.
func WriteJSON(w io.Writer, rep *Report) error {
	rep.Schema = ReportSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
