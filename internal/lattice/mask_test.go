package lattice

import (
	"math/rand"
	"testing"

	"rdlroute/internal/geom"
)

// TestAllowOctMatchesContains: rasterization must agree with
// Oct8.Contains at every lattice node, for random octagons including
// degenerate ones.
func TestAllowOctMatchesContains(t *testing.T) {
	la := mustNew(t, bare(1))
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		span := func() (int64, int64) {
			a := int64(rng.Intn(600))
			b := a + int64(rng.Intn(240))
			return a, b
		}
		var o geom.Oct8
		o.XLo, o.XHi = span()
		o.YLo, o.YHi = span()
		o.SLo, o.SHi = span()
		o.SLo += o.XLo + o.YLo - 120
		o.SHi += o.XLo + o.YLo
		o.DLo, o.DHi = span()
		o.DLo += o.YLo - o.XHi - 120
		o.DHi += o.YLo - o.XHi
		m := la.NewRegionMask()
		m.AllowOct(0, o)
		c := o.Canonical()
		for j := 0; j < la.NY; j++ {
			for i := 0; i < la.NX; i++ {
				want := c.Contains(la.NodePoint(i, j))
				if got := m.Allowed(0, i, j); got != want {
					t.Fatalf("iter %d: node (%d,%d)=%v allowed=%v want=%v oct=%v",
						iter, i, j, la.NodePoint(i, j), got, want, c)
				}
			}
		}
	}
}

func TestMaskRectAndLayerBounds(t *testing.T) {
	la := mustNew(t, bare(2))
	m := la.NewRegionMask()
	m.AllowRect(1, geom.RectWH(24, 24, 120, 60))
	if m.Allowed(0, 3, 3) {
		t.Error("layer 0 must stay disallowed")
	}
	if !m.Allowed(1, 2, 2) || !m.Allowed(1, 12, 7) {
		t.Error("rect corners (24,24)-(144,84) should be allowed on layer 1")
	}
	if m.Allowed(1, 13, 2) || m.Allowed(1, 2, 8) {
		t.Error("nodes outside the rect should stay disallowed")
	}
	m.ClearRect(1, geom.RectWH(48, 24, 24, 60))
	if m.Allowed(1, 5, 4) {
		t.Error("cleared sub-rect should be disallowed again")
	}
	if !m.Allowed(1, 2, 4) || !m.Allowed(1, 12, 4) {
		t.Error("clear must not spill outside its rect")
	}
	if m.Allowed(-1, 0, 0) || m.Allowed(2, 0, 0) {
		t.Error("out-of-range layers must read as disallowed")
	}
}

// TestSearchWindowCoversTerminals: the clip window must always contain
// the snapped terminal nodes with margin, whatever the cost budget.
func TestSearchWindowCoversTerminals(t *testing.T) {
	la := mustNew(t, bare(1))
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 500; iter++ {
		from := geom.Pt(int64(rng.Intn(600)), int64(rng.Intn(600)))
		to := geom.Pt(int64(rng.Intn(600)), int64(rng.Intn(600)))
		i0, j0, i1, j1 := la.SearchWindow(from, to, 0)
		for _, p := range []geom.Point{from, to} {
			i, j := la.Snap(p)
			if i < i0 || i > i1 || j < j0 || j > j1 {
				t.Fatalf("window [%d,%d]x[%d,%d] misses terminal %v (node %d,%d)",
					i0, i1, j0, j1, p, i, j)
			}
		}
		if i0 < 0 || j0 < 0 || i1 >= la.NX || j1 >= la.NY {
			t.Fatalf("window [%d,%d]x[%d,%d] out of lattice %dx%d", i0, i1, j0, j1, la.NX, la.NY)
		}
	}
}
