package router

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestPortfolioMatchesSoloWinner is the winner-equals-solo oracle at the
// router level: a portfolio run must be indistinguishable — lattice
// fingerprint, routed nets, wirelength — from a solo run pinned to the
// policy the race selected. (The qa suite additionally compares encoded
// rdl-result/v1 bytes; the codec cannot be imported from here.)
func TestPortfolioMatchesSoloWinner(t *testing.T) {
	d := genDense1(t)
	opts := DefaultOptions()
	opts.OrderPortfolio = 6
	opts.Workers = 8

	res, la, err := route(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Portfolio == nil {
		t.Fatal("portfolio run returned no PortfolioReport")
	}
	if n := len(res.Portfolio.Candidates); n != 6 {
		t.Fatalf("raced %d candidates, want 6", n)
	}
	win := res.Portfolio.Winner
	if name := PortfolioPolicyName(win); name != res.Portfolio.WinnerName {
		t.Fatalf("winner name %q does not match registry name %q", res.Portfolio.WinnerName, name)
	}

	solo, sla, err := route(context.Background(), genDense1(t), WithOrderPolicy(opts, win))
	if err != nil {
		t.Fatal(err)
	}
	if solo.Portfolio != nil {
		t.Fatal("solo run carries a PortfolioReport")
	}
	if fp, sfp := la.Fingerprint(), sla.Fingerprint(); fp != sfp {
		t.Fatalf("portfolio lattice fingerprint %x != solo-winner fingerprint %x", fp, sfp)
	}
	if res.RoutedNets != solo.RoutedNets || res.Wirelength != solo.Wirelength {
		t.Fatalf("portfolio result (%d nets, wl %.3f) != solo winner (%d nets, wl %.3f)",
			res.RoutedNets, res.Wirelength, solo.RoutedNets, solo.Wirelength)
	}
	// The report's winning score is the score the replay actually
	// achieved (both include rip-up, disabled here, and exclude LP, which
	// never changes the routed count).
	if ws := res.Portfolio.Candidates[win]; ws.Routed != res.RoutedNets {
		t.Fatalf("winner scored %d routed nets in the race but %d in the replay", ws.Routed, res.RoutedNets)
	}
}

// TestPortfolioMonotonic is the monotonicity oracle: the portfolio must
// route at least as many nets as every individual policy it raced.
func TestPortfolioMonotonic(t *testing.T) {
	d := genDense1(t)
	opts := DefaultOptions()
	opts.OrderPortfolio = 6
	opts.RipUpRounds = 1

	res, err := Route(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for policy := 0; policy < opts.OrderPortfolio; policy++ {
		solo, err := Route(genDense1(t), WithOrderPolicy(opts, policy))
		if err != nil {
			t.Fatalf("solo policy %d: %v", policy, err)
		}
		if solo.RoutedNets > res.RoutedNets {
			t.Fatalf("policy %d (%s) routed %d nets, portfolio only %d",
				policy, PortfolioPolicyName(policy), solo.RoutedNets, res.RoutedNets)
		}
		if sc := res.Portfolio.Candidates[policy]; sc.Routed != solo.RoutedNets {
			t.Fatalf("race scored policy %d (%s) at %d routed nets, solo run achieved %d",
				policy, PortfolioPolicyName(policy), sc.Routed, solo.RoutedNets)
		}
	}
}

// TestPortfolioWorkerInvariant: the race's outcome — winner, scores and
// final lattice — must be byte-identical whether candidates run inline on
// one worker or concurrently on eight.
func TestPortfolioWorkerInvariant(t *testing.T) {
	opts := DefaultOptions()
	opts.OrderPortfolio = 6

	base, bla, err := route(context.Background(), genDense1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	bfp := bla.Fingerprint()
	for _, workers := range []int{2, 8} {
		o := opts
		o.Workers = workers
		res, la, err := route(context.Background(), genDense1(t), o)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if fp := la.Fingerprint(); fp != bfp {
			t.Fatalf("workers %d: fingerprint %x != single-worker %x", workers, fp, bfp)
		}
		if res.Portfolio.Winner != base.Portfolio.Winner {
			t.Fatalf("workers %d: winner %d != single-worker winner %d",
				workers, res.Portfolio.Winner, base.Portfolio.Winner)
		}
		for i, sc := range res.Portfolio.Candidates {
			if sc != base.Portfolio.Candidates[i] {
				t.Fatalf("workers %d: candidate %d scored %+v, single-worker %+v",
					workers, i, sc, base.Portfolio.Candidates[i])
			}
		}
	}
}

// TestPortfolioOptionValidation: out-of-range portfolio sizes and order
// policies fail fast, before any stage runs.
func TestPortfolioOptionValidation(t *testing.T) {
	d := genDense1(t)
	opts := DefaultOptions()
	opts.OrderPortfolio = MaxPortfolio + 1
	if _, err := Route(d, opts); err == nil {
		t.Error("OrderPortfolio above MaxPortfolio accepted")
	}
	opts.OrderPortfolio = -1
	if _, err := Route(d, opts); err == nil {
		t.Error("negative OrderPortfolio accepted")
	}
	for _, i := range []int{-1, MaxPortfolio} {
		if _, err := Route(d, WithOrderPolicy(DefaultOptions(), i)); err == nil {
			t.Errorf("order policy %d accepted", i)
		}
	}
}

// TestCancelMidPortfolio sweeps a deadline across a portfolio run the way
// TestCancelMidParallelStage does for the parallel stages: whenever the
// deadline lands — during the silent race on scratch clones or during the
// winner's replay — the caller gets a clean context error and the next
// full run computes a byte-identical lattice. The race itself never
// touches the real lattice, so a cancellation mid-race has nothing to
// unwind by construction; this pins it.
func TestCancelMidPortfolio(t *testing.T) {
	opts := DefaultOptions()
	opts.OrderPortfolio = 6
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

		res2, la2, err := route(context.Background(), genDense1(t), opts)
		if err != nil {
			t.Fatalf("budget %v: re-route: %v", budget, err)
		}
		if fp2 := la2.Fingerprint(); fp2 != fp1 {
			t.Fatalf("budget %v: lattice fingerprint changed after a cancelled portfolio run: %x != %x", budget, fp2, fp1)
		}
		if res1.Routability != res2.Routability || res1.Wirelength != res2.Wirelength ||
			res1.RoutedNets != res2.RoutedNets || res2.Portfolio.Winner != res1.Portfolio.Winner {
			t.Fatalf("budget %v: results diverged after a cancelled portfolio run", budget)
		}
	}
}
