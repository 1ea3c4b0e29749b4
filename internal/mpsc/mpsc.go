// Package mpsc implements the weighted maximum planar subset of chords
// algorithm the paper builds its layer assignment on: Supowit's dynamic
// program over a circular model, extended with per-chord weights (paper
// Eq. (2)) so congestion- and detour-prone nets are deprioritized.
//
// The circular model has m positions 0..m−1 on a circle; each chord joins
// two distinct positions and carries a positive weight. A subset of chords
// is planar when no two chords cross; the DP finds a planar subset of
// maximum total weight in O(m²) time, using the property that every circle
// position is an endpoint of at most one chord (each position is one pad's
// fan-out access point).
package mpsc

import (
	"context"
	"fmt"

	"rdlroute/internal/obs"
)

// Chord is a chord of the circular model joining positions A and B
// (order irrelevant) with weight W. Tag carries the caller's net index
// through the computation.
type Chord struct {
	A, B int
	W    float64
	Tag  int
}

// Crosses reports whether chords c and d cross: exactly one endpoint of d
// lies strictly between c's endpoints along the circle. Chords sharing an
// endpoint do not cross.
func Crosses(c, d Chord) bool {
	a, b := order(c)
	e, f := order(d)
	if a == e || a == f || b == e || b == f {
		return false
	}
	inside := func(x int) bool { return a < x && x < b }
	return inside(e) != inside(f)
}

func order(c Chord) (lo, hi int) {
	if c.A <= c.B {
		return c.A, c.B
	}
	return c.B, c.A
}

// MaxPlanarSubset returns the indices (into chords) of a maximum-weight
// planar subset, and its total weight. m is the number of circle
// positions. Chords with non-positive weight are never selected. It panics
// if two chords share an endpoint or an endpoint is out of range — the
// circular-model construction guarantees unique positions.
func MaxPlanarSubset(m int, chords []Chord) ([]int, float64) {
	picked, w, _ := maxPlanarSubset(nil, m, chords)
	return picked, w
}

// maxPlanarSubset is MaxPlanarSubset with cancellation: the O(m²) DP
// polls ctx once per outer arc-length iteration (an O(m) stride) and
// returns ctx's error when it fires. A nil ctx is never polled.
func maxPlanarSubset(ctx context.Context, m int, chords []Chord) ([]int, float64, error) {
	endAt := make([]int, m) // chord index whose higher endpoint is j, or −1
	for i := range endAt {
		endAt[i] = -1
	}
	otherEnd := make([]int, m)
	seen := make([]bool, m)
	for i, c := range chords {
		lo, hi := order(c)
		if lo < 0 || hi >= m {
			panic(fmt.Sprintf("mpsc: chord %d endpoints (%d,%d) out of range [0,%d)", i, c.A, c.B, m))
		}
		if lo == hi {
			panic(fmt.Sprintf("mpsc: chord %d is degenerate at position %d", i, lo))
		}
		if seen[lo] || seen[hi] {
			panic(fmt.Sprintf("mpsc: chord %d shares an endpoint with another chord", i))
		}
		seen[lo] = true
		seen[hi] = true
		if c.W > 0 {
			endAt[hi] = i
			otherEnd[hi] = lo
		}
	}

	if m == 0 {
		return nil, 0, nil
	}

	// best[i][j] = max weight planar subset using only chords inside the
	// arc [i, j]. Stored as a flattened upper-triangular table.
	idx := func(i, j int) int { return i*m + j }
	best := make([]float64, m*m)

	for length := 1; length < m; length++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		for i := 0; i+length < m; i++ {
			j := i + length
			v := best[idx(i, j-1)]
			if ci := endAt[j]; ci >= 0 {
				k := otherEnd[j]
				if k >= i {
					w := chords[ci].W
					if k > i {
						w += best[idx(i, k-1)]
					}
					if k+1 <= j-1 {
						w += best[idx(k+1, j-1)]
					}
					if w > v {
						v = w
					}
				}
			}
			best[idx(i, j)] = v
		}
	}

	// Recover the chosen set by retracing the DP decisions.
	var picked []int
	var walk func(i, j int)
	walk = func(i, j int) {
		for j > i {
			ci := endAt[j]
			if ci >= 0 {
				k := otherEnd[j]
				if k >= i {
					w := chords[ci].W
					if k > i {
						w += best[idx(i, k-1)]
					}
					if k+1 <= j-1 {
						w += best[idx(k+1, j-1)]
					}
					if w == best[idx(i, j)] {
						picked = append(picked, ci)
						if k+1 <= j-1 {
							walk(k+1, j-1)
						}
						j = k - 1
						if j < i {
							return
						}
						continue
					}
				}
			}
			j--
		}
	}
	walk(0, m-1)
	return picked, best[idx(0, m-1)], nil
}

// MaxPlanarSubsetTracedCtx runs MaxPlanarSubset with cancellation and,
// when the tracer is enabled, emits an "mpsc.select" event carrying the
// chords considered, the chords picked and the selected weight, plus any
// extra attributes the caller tags on (e.g. the wire layer being
// assigned). The DP polls ctx once per outer arc-length iteration; on a
// cancelled DP no event is emitted and ctx's error is returned.
func MaxPlanarSubsetTracedCtx(ctx context.Context, m int, chords []Chord, tr obs.Tracer, extra ...obs.Attr) ([]int, float64, error) {
	picked, weight, err := maxPlanarSubset(ctx, m, chords)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil && tr.Enabled() {
		attrs := append([]obs.Attr{
			obs.Int("considered", len(chords)),
			obs.Int("picked", len(picked)),
			obs.Float("weight", weight),
		}, extra...)
		tr.Event("mpsc.select", attrs...)
		tr.Count("mpsc.chords_considered", int64(len(chords)))
		tr.Count("mpsc.chords_picked", int64(len(picked)))
	}
	return picked, weight, nil
}

// Validate reports an error when the chord set violates the circular-model
// preconditions (used by callers that cannot tolerate the panic).
func Validate(m int, chords []Chord) error {
	seen := make([]bool, m)
	for i, c := range chords {
		lo, hi := order(c)
		if lo < 0 || hi >= m {
			return fmt.Errorf("mpsc: chord %d endpoints (%d,%d) out of range [0,%d)", i, c.A, c.B, m)
		}
		if lo == hi {
			return fmt.Errorf("mpsc: chord %d degenerate at %d", i, lo)
		}
		if seen[lo] || seen[hi] {
			return fmt.Errorf("mpsc: chord %d shares an endpoint", i)
		}
		seen[lo] = true
		seen[hi] = true
	}
	return nil
}
