package qa

import (
	"bytes"
	"context"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// workerMatrix is the worker-count axis of the determinism matrix: the
// sequential path, the smallest real pool, and a pool far wider than
// this machine has cores (oversubscription shakes out scheduling-order
// assumptions even on one CPU).
var workerMatrix = []int{1, 2, 8}

// routeStable routes d with the given worker count and returns the
// lattice fingerprint plus the stable (runtime-zeroed) rdl-result/v1
// encoding and the result itself.
func routeStable(t *testing.T, d *design.Design, workers int) (uint64, []byte, *router.Result) {
	t.Helper()
	opts := flowOptions()
	opts.Workers = workers
	res, fp, err := router.RouteFingerprint(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	enc, err := encodeResultStable(res)
	if err != nil {
		t.Fatalf("workers=%d: encode: %v", workers, err)
	}
	return fp, enc, res
}

// assertWorkerInvariant routes d at every worker count and fails if any
// observable — lattice fingerprint, routed-net count, wirelength, or the
// encoded rdl-result/v1 bytes — differs from the workers=1 run. This is
// the package's enforcement of the par contract: the parallel stages are
// byte-identical to the sequential path, not merely "equivalent".
func assertWorkerInvariant(t *testing.T, label string, d *design.Design) {
	t.Helper()
	fp1, enc1, res1 := routeStable(t, d, workerMatrix[0])
	for _, w := range workerMatrix[1:] {
		fp, enc, res := routeStable(t, d, w)
		if fp != fp1 {
			t.Errorf("%s: workers=%d lattice fingerprint %x, workers=1 got %x", label, w, fp, fp1)
		}
		if res.RoutedNets != res1.RoutedNets || res.Wirelength != res1.Wirelength {
			t.Errorf("%s: workers=%d routed %d wl %.3f, workers=1 routed %d wl %.3f",
				label, w, res.RoutedNets, res.Wirelength, res1.RoutedNets, res1.Wirelength)
		}
		if !bytes.Equal(enc, enc1) {
			t.Errorf("%s: workers=%d rdl-result/v1 bytes differ from workers=1 (%d vs %d bytes)",
				label, w, len(enc), len(enc1))
		}
	}
}

// denseMatrixNames returns the Table-I circuits the dense determinism
// matrix covers: all five in a full run, trimmed under -short, and
// trimmed harder under the race detector's ~10× routing overhead (the
// full matrix runs race-free in the verify script's determinism stage,
// and verify.sh also runs this test under -race at the reduced size).
func denseMatrixNames() []string {
	names := []string{"dense1", "dense2", "dense3", "dense4", "dense5"}
	if testing.Short() {
		names = names[:3]
	}
	if raceEnabled {
		names = names[:2]
	}
	return names
}

// TestWorkerDeterminismDense is the determinism matrix over the paper's
// benchmark circuits: each routes at workers 1, 2 and 8 and must produce
// identical fingerprints, metrics and result bytes.
func TestWorkerDeterminismDense(t *testing.T) {
	for _, name := range denseMatrixNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := design.DenseSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := design.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			assertWorkerInvariant(t, name, d)
		})
	}
}

// TestWorkerDeterminismRandom runs the same matrix over qa-generated
// designs — irregular pad rings, area pads, obstacles, adversarial
// near-minimum spacing — which exercise flow paths (rip-up, corridors,
// degenerate fan-out regions) the regular dense circuits never reach.
func TestWorkerDeterminismRandom(t *testing.T) {
	const seeds = 10
	for seed := int64(1); seed <= seeds; seed++ {
		d := Generate(seed)
		assertWorkerInvariant(t, d.Name, d)
	}
}
