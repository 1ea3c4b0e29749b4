package router

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdlroute/internal/design"
)

func genDense1(t *testing.T) *design.Design {
	t.Helper()
	spec, err := design.DenseSpec("dense1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRouteContextAlreadyCancelled(t *testing.T) {
	d := genDense1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RouteContext(ctx, d, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a result: %+v", res)
	}
}

func TestRouteContextDeadlineMidRun(t *testing.T) {
	d := genDense1(t)
	// dense1 routes in >100ms; a 15ms deadline fires mid-flow, somewhere
	// inside the stage checkpoints or the A*/DP/LP poll loops.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	res, err := RouteContext(ctx, d, DefaultOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("deadlined run returned a result: %+v", res)
	}
}

// TestCancelLeavesNoCorruption is the fingerprint gate: a cancelled run in
// between two full runs must not change what the full runs compute. Each
// run builds its own lattice, so this pins the absence of hidden shared
// state (package-level caches, pooled search buffers leaking occupancy).
func TestCancelLeavesNoCorruption(t *testing.T) {
	opts := DefaultOptions()

	res1, la1, err := route(context.Background(), genDense1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	fp1 := la1.Fingerprint()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	if _, _, err := route(ctx, genDense1(t), opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run deadline: err = %v, want context.DeadlineExceeded", err)
	}
	cancel()

	res2, la2, err := route(context.Background(), genDense1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fp2 := la2.Fingerprint(); fp2 != fp1 {
		t.Fatalf("lattice fingerprint changed after a cancelled run: %x != %x", fp2, fp1)
	}
	if res1.Routability != res2.Routability || res1.Wirelength != res2.Wirelength ||
		res1.RoutedNets != res2.RoutedNets {
		t.Fatalf("results diverged after a cancelled run: %+v vs %+v", res1, res2)
	}
}

// TestCancelMidParallelStage is TestCancelLeavesNoCorruption with the
// worker pool engaged (Workers=8 on dense1) and the deadline swept
// across the flow's runtime, so cancellation fires inside the parallel
// fan-outs — the stage-3 tile warm-up, the congested-order overlap count
// — not just at stage checkpoints.
// The contract is the same: a clean context error, no result, and a
// byte-identical full run afterwards.
func TestCancelMidParallelStage(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 8

	res1, la1, err := route(context.Background(), genDense1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	fp1 := la1.Fingerprint()

	for _, budget := range []time.Duration{
		2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond, 120 * time.Millisecond,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		res, _, err := route(ctx, genDense1(t), opts)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("budget %v: err = %v, want a context error", budget, err)
			}
			if res != nil {
				t.Fatalf("budget %v: cancelled run returned a result", budget)
			}
		}
		// A budget the flow beat is fine: the run completed normally and
		// the fingerprint check below covers it via the final full run.

		res2, la2, err := route(context.Background(), genDense1(t), opts)
		if err != nil {
			t.Fatalf("budget %v: re-route: %v", budget, err)
		}
		if fp2 := la2.Fingerprint(); fp2 != fp1 {
			t.Fatalf("budget %v: lattice fingerprint changed after a cancelled parallel run: %x != %x", budget, fp2, fp1)
		}
		if res1.Routability != res2.Routability || res1.Wirelength != res2.Wirelength ||
			res1.RoutedNets != res2.RoutedNets {
			t.Fatalf("budget %v: results diverged after a cancelled parallel run", budget)
		}
	}
}
