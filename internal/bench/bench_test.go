package bench

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// dense1Metrics routes dense1 once for every test that reads its
// RunMetrics row.
var dense1Metrics = sync.OnceValues(func() (MetricsRow, error) {
	rows, err := RunMetrics([]string{"dense1"})
	if err != nil {
		return MetricsRow{}, err
	}
	return rows[0], nil
})

func TestRunTable1Dense1(t *testing.T) {
	rows, err := RunTable1([]string{"dense1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Stats.Q != 44 || r.Stats.N != 22 {
		t.Errorf("dense1 stats = %+v", r.Stats)
	}
	if r.OursDRC != 0 {
		t.Errorf("our flow produced %d DRC violations", r.OursDRC)
	}
	if r.LinDRC != 0 {
		t.Errorf("Lin-ext produced %d DRC violations", r.LinDRC)
	}
	// The paper's central comparison: ours ≥ Lin-ext routability.
	if r.Ours.Routability < r.Lin.Routability {
		t.Errorf("ours %.1f%% < Lin-ext %.1f%%", r.Ours.Routability, r.Lin.Routability)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "dense1") || !strings.Contains(out, "Comp.") {
		t.Errorf("table formatting:\n%s", out)
	}
	t.Logf("\n%s", out)
}

func TestRunFig2(t *testing.T) {
	res, err := RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fig2: ours min layers = %d, Lin-ext min layers = %d", res.OursMinLayers, res.LinMinLayers)
	// Paper Figure 2: flexible vias route the entangled triple in 2 RDLs;
	// the single-layer baseline needs 3.
	if res.OursMinLayers != 2 {
		t.Errorf("ours min layers = %d, want 2", res.OursMinLayers)
	}
	if res.LinMinLayers != 3 {
		t.Errorf("Lin-ext min layers = %d, want 3", res.LinMinLayers)
	}
}

func TestRunFig5(t *testing.T) {
	res := RunFig5()
	t.Logf("fig5: unweighted %d assigned / %d survive; weighted %d assigned / %d survive",
		res.UnweightedAssigned, res.UnweightedSurvive,
		res.WeightedAssigned, res.WeightedSurvive)
	// Paper Figure 5: unweighted MPSC assigns the three channel nets but
	// only one survives detailed routing; weighted MPSC assigns the two
	// local nets and both survive.
	if res.UnweightedAssigned != 3 || res.UnweightedSurvive != 1 {
		t.Errorf("unweighted = %d/%d, want 3/1", res.UnweightedAssigned, res.UnweightedSurvive)
	}
	if res.WeightedAssigned != 2 || res.WeightedSurvive != 2 {
		t.Errorf("weighted = %d/%d, want 2/2", res.WeightedAssigned, res.WeightedSurvive)
	}
}

func TestRunFig7Dense1(t *testing.T) {
	m, err := dense1Metrics()
	if err != nil {
		t.Fatal(err)
	}
	r := m.Fig7
	t.Logf("fig7 dense1: %.0f -> %.0f (%.2f%%), %d iterations", r.Before, r.After, r.Reduction, r.Iterations)
	if r.After > r.Before {
		t.Errorf("LP increased wirelength: %.0f -> %.0f", r.Before, r.After)
	}
	if r.Reduction < 0 {
		t.Errorf("negative reduction %v", r.Reduction)
	}
}

func TestRunLPItersBounded(t *testing.T) {
	m, err := dense1Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.LPIter.Iterations > 50 {
		t.Errorf("LP iterations = %d, paper bound is ~50", m.LPIter.Iterations)
	}
}

func TestRunAblationsDense1(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	rows, err := RunAblations([]string{"dense1"})
	if err != nil {
		t.Fatal(err)
	}
	var full AblationRow
	for _, r := range rows {
		t.Logf("%-18s r=%.1f%% wl=%.0f conc=%d drc=%d t=%.2fs",
			r.Config, r.Routability, r.Wirelength, r.Concurrent, r.DRC, r.Seconds)
		if r.DRC != 0 {
			t.Errorf("%s: %d DRC violations", r.Config, r.DRC)
		}
		if r.Config == "full" {
			full = r
		}
	}
	for _, r := range rows {
		if r.Config == "no-concurrent" && r.Concurrent != 0 {
			t.Errorf("no-concurrent ablation still routed %d nets concurrently", r.Concurrent)
		}
		if r.Config == "unweighted-mpsc" && full.Routability < r.Routability-20 {
			t.Errorf("weighted flow dramatically worse than unweighted: %v vs %v",
				full.Routability, r.Routability)
		}
	}
}

func TestRunGraphSize(t *testing.T) {
	m, err := dense1Metrics()
	if err != nil {
		t.Fatal(err)
	}
	r := m.Graph
	t.Logf("graph size: %d tiles vs %d grid nodes (ratio %.3f)", r.TileNodes, r.GridNodes, r.Ratio)
	if r.TileNodes <= 0 || r.GridNodes <= 0 {
		t.Fatal("empty graph sizes")
	}
	// The tile model's point: far fewer nodes than a uniform fine grid.
	if r.Ratio >= 0.5 {
		t.Errorf("tile graph not compact: ratio %.3f", r.Ratio)
	}
}

func TestRunTable1Timeout(t *testing.T) {
	Timeout = time.Millisecond
	defer func() { Timeout = 0 }()
	rows, err := RunTable1([]string{"dense1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("timed-out circuit was dropped: rows = %d", len(rows))
	}
	r := rows[0]
	if r.Status != "timeout" || r.Ours != nil || r.Lin != nil {
		t.Fatalf("row = %+v, want status timeout with nil results", r)
	}
	j := r.JSON()
	if j.Status != "timeout" || j.Circuit != "dense1" {
		t.Fatalf("json row = %+v", j)
	}
	if out := FormatTable1(rows); !strings.Contains(out, "timeout") {
		t.Fatalf("formatted table lacks timeout marker:\n%s", out)
	}
}
