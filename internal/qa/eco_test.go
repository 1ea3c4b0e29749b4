package qa

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/eco"
	"rdlroute/internal/geom"
)

// randomDelta draws one valid ECO edit against d: a pad move of one or
// two grid steps, a net removal, a remove-and-readd of a net under a
// fresh ID (exercising the add path), or an obstacle removal. Draws
// retry until eco.Apply accepts the edit.
func randomDelta(t *testing.T, d *design.Design, rng *rand.Rand) *eco.Delta {
	t.Helper()
	dirs := []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 1), geom.Pt(0, -1)}
	maxID := 0
	for _, n := range d.Nets {
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	for attempt := 0; attempt < 100; attempt++ {
		dl := &eco.Delta{}
		switch k := rng.Intn(4); {
		case k == 0:
			n := d.Nets[rng.Intn(len(d.Nets))]
			ref := n.P1
			if rng.Intn(2) == 1 {
				ref = n.P2
			}
			step := design.Grid * int64(1+rng.Intn(2))
			to := d.PadCenter(ref).Add(dirs[rng.Intn(len(dirs))].Scale(step))
			if ref.Kind == design.IOKind {
				dl.MoveIOPads = []eco.MovePad{{Index: ref.Index, To: to}}
			} else {
				dl.MoveBumpPads = []eco.MovePad{{Index: ref.Index, To: to}}
			}
		case k == 1:
			dl.RemoveNets = []int{rng.Intn(len(d.Nets))}
		case k == 2:
			i := rng.Intn(len(d.Nets))
			n := d.Nets[i]
			dl.RemoveNets = []int{i}
			dl.AddNets = []design.Net{{ID: maxID + 1, P1: n.P1, P2: n.P2}}
		case len(d.Obstacles) > 0:
			dl.RemoveObstacles = []int{rng.Intn(len(d.Obstacles))}
		default:
			continue
		}
		if _, err := eco.Apply(d, dl); err == nil {
			return dl
		}
	}
	t.Fatalf("no valid random delta found for %s after 100 draws", d.Name)
	return nil
}

// ecoSweepSize mirrors sweepSize's tiering for the ECO gate: each seed
// costs two routing runs of the edited design (workers 1 and 2).
func ecoSweepSize() int {
	n := 16
	if testing.Short() || raceEnabled {
		n = 6
	}
	return n
}

// TestECODeltaSweep is the delta path's acceptance gate: for seeded
// random designs and random deltas (pad moves, net removals,
// add-after-remove, obstacle removals), the edited design eco.Apply
// produces must validate and route cold through the full flow with every
// result oracle passing — DRC-clean, connected, counts and wirelength
// consistent — at workers 1 and 2, with identical lattice fingerprints
// and rdl-result/v1 bytes at both worker counts.
func TestECODeltaSweep(t *testing.T) {
	for i := 0; i < ecoSweepSize(); i++ {
		seed := int64(9100 + i)
		d := Generate(seed)
		rng := rand.New(rand.NewSource(seed * 31))
		dl := randomDelta(t, d, rng)
		edited, err := eco.Apply(d, dl)
		if err != nil {
			t.Fatalf("seed %d: apply %+v: %v", seed, dl, err)
		}
		if err := edited.Validate(); err != nil {
			t.Fatalf("seed %d: edited design does not validate (delta %+v): %v", seed, dl, err)
		}
		fp1, enc1, res1 := routeStable(t, edited, 1)
		checkResultOracles(edited, "eco", res1.Layout, res1.Wirelength, res1.RoutedNets,
			func(oracle, format string, args ...any) {
				t.Errorf("seed %d: %s: %s (delta %+v)", seed, oracle, fmt.Sprintf(format, args...), dl)
			})
		fp2, enc2, _ := routeStable(t, edited, 2)
		if fp2 != fp1 {
			t.Errorf("seed %d: workers=2 fingerprint %x, workers=1 %x (delta %+v)", seed, fp2, fp1, dl)
		}
		if !bytes.Equal(enc2, enc1) {
			t.Errorf("seed %d: workers=2 rdl-result/v1 bytes differ from workers=1 (delta %+v)", seed, dl)
		}
	}
}
