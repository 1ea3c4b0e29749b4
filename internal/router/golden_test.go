package router

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/obs"
)

// The golden quality gate pins what a DefaultOptions route of each Table-I
// circuit produces: routability, wirelength, the lattice fingerprint, the
// stage-3 graph size, the per-stage net split and the total A* effort,
// with the searches the goal-side flood refuted and the nodes it took. A
// change that moves any of them must regenerate the files in the same diff
// and say why:
//
//	go test ./internal/router -run TestGoldenDense -update               # dense1..3
//	go test ./internal/router -run TestGoldenDense -update -golden-full  # dense1..5
var (
	updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")
	goldenFull   = flag.Bool("golden-full", false, "also check dense4 and dense5 (slow; scripts/verify.sh opts in)")
)

// golden is one circuit's pinned outcome.
type golden struct {
	Design        string  `json:"design"`
	RoutedNets    int     `json:"routed_nets"`
	TotalNets     int     `json:"total_nets"`
	Wirelength    float64 `json:"wirelength"`
	Fingerprint   string  `json:"fingerprint"`
	TileCount     int     `json:"tile_count"`
	Concurrent    int     `json:"concurrent"`
	Corridor      int     `json:"corridor"`
	Fallback      int     `json:"fallback"`
	AStarExpanded int64   `json:"astar_expanded"`
	AStarVisited  int64   `json:"astar_visited"`
	AStarRefuted  int64   `json:"astar_refuted"`
	AStarFlood    int64   `json:"astar_flood_nodes"`
}

func routeGolden(t *testing.T, name string) golden {
	t.Helper()
	spec, err := design.DenseSpec(name)
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
	res, fp, err := RouteFingerprint(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	return golden{
		Design:        name,
		RoutedNets:    res.RoutedNets,
		TotalNets:     res.TotalNets,
		Wirelength:    res.Wirelength,
		Fingerprint:   fmt.Sprintf("%016x", fp),
		TileCount:     res.TileCount,
		Concurrent:    res.ConcurrentRouted,
		Corridor:      res.CorridorRouted,
		Fallback:      res.FallbackRouted,
		AStarExpanded: int64(snap.Dists["astar.expanded"].Sum),
		AStarVisited:  int64(snap.Dists["astar.visited"].Sum),
		AStarRefuted:  c.Counter("astar.refuted"),
		AStarFlood:    c.Counter("astar.flood_nodes"),
	}
}

func TestGoldenDense(t *testing.T) {
	if testing.Short() {
		t.Skip("dense benchmarks in -short mode")
	}
	names := []string{"dense1", "dense2", "dense3"}
	if *goldenFull {
		names = append(names, "dense4", "dense5")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			got := routeGolden(t, name)
			data, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			path := filepath.Join("testdata", "golden", name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if bytes.Equal(data, want) {
				return
			}
			var w golden
			if err := json.Unmarshal(want, &w); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			t.Errorf("%s drifted from %s (regenerate with -update only for a declared behaviour change)\n got: %+v\nwant: %+v", name, path, got, w)
		})
	}
}
