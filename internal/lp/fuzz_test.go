package lp_test

import (
	"testing"

	"rdlroute/internal/qa"
)

// FuzzSimplex drives the planted-point check from fuzzed seeds: each seed
// draws a random LP in the shapes the layout optimizer emits around a
// feasible point x0, and the simplex must never call it infeasible; an
// optimal answer must satisfy its own constraints
// (Problem.CheckFeasible) and cost no more than x0. Seed corpus:
// testdata/fuzz/FuzzSimplex.
func FuzzSimplex(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 12345} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, fail := range qa.CheckLPAgreement(seed) {
			t.Errorf("lp seed %d: %s", seed, fail)
		}
	})
}
