package geom

import (
	"math/rand"
	"reflect"
	"testing"
)

// closureSubtractOct is the reference for AppendSubtractOct's pieces and
// their order: the same peeling written as a table of closures, one pair
// per half-plane of b, each piece checked with Empty and then
// canonicalized.
func closureSubtractOct(o, b Oct8) []Oct8 {
	if !o.Intersects(b) {
		if o.Empty() {
			return nil
		}
		return []Oct8{o}
	}
	b = b.Canonical()
	remaining := o
	var out []Oct8
	emit := func(piece Oct8) {
		if !piece.Empty() {
			out = append(out, piece.Canonical())
		}
	}
	type cut struct {
		apply func(Oct8) Oct8 // piece outside b's constraint
		keep  func(Oct8) Oct8 // piece inside b's constraint
	}
	cuts := []cut{
		{func(p Oct8) Oct8 { p.XHi = Min64(p.XHi, b.XLo-1); return p },
			func(p Oct8) Oct8 { p.XLo = Max64(p.XLo, b.XLo); return p }},
		{func(p Oct8) Oct8 { p.XLo = Max64(p.XLo, b.XHi+1); return p },
			func(p Oct8) Oct8 { p.XHi = Min64(p.XHi, b.XHi); return p }},
		{func(p Oct8) Oct8 { p.YHi = Min64(p.YHi, b.YLo-1); return p },
			func(p Oct8) Oct8 { p.YLo = Max64(p.YLo, b.YLo); return p }},
		{func(p Oct8) Oct8 { p.YLo = Max64(p.YLo, b.YHi+1); return p },
			func(p Oct8) Oct8 { p.YHi = Min64(p.YHi, b.YHi); return p }},
		{func(p Oct8) Oct8 { p.SHi = Min64(p.SHi, b.SLo-1); return p },
			func(p Oct8) Oct8 { p.SLo = Max64(p.SLo, b.SLo); return p }},
		{func(p Oct8) Oct8 { p.SLo = Max64(p.SLo, b.SHi+1); return p },
			func(p Oct8) Oct8 { p.SHi = Min64(p.SHi, b.SHi); return p }},
		{func(p Oct8) Oct8 { p.DHi = Min64(p.DHi, b.DLo-1); return p },
			func(p Oct8) Oct8 { p.DLo = Max64(p.DLo, b.DLo); return p }},
		{func(p Oct8) Oct8 { p.DLo = Max64(p.DLo, b.DHi+1); return p },
			func(p Oct8) Oct8 { p.DHi = Min64(p.DHi, b.DHi); return p }},
	}
	for _, c := range cuts {
		emit(c.apply(remaining))
		remaining = c.keep(remaining)
		if remaining.Empty() {
			break
		}
	}
	return out
}

// randomOct draws an octagon near the origin: a rectangle, a regular
// octagon, a segment's band, a point or a line (degenerate), or raw
// random bounds that are usually not canonical and sometimes empty.
func randomOct(rng *rand.Rand) Oct8 {
	c := func() int64 { return rng.Int63n(41) - 20 }
	switch rng.Intn(6) {
	case 0:
		x, y := c(), c()
		return OctFromRect(Rect{x, y, x + rng.Int63n(40), y + rng.Int63n(40)})
	case 1:
		return RegularOct(Pt(c(), c()), rng.Int63n(40))
	case 2:
		a := Pt(c(), c())
		n := rng.Int63n(30)
		d := [][2]int64{{1, 0}, {0, 1}, {1, 1}, {1, -1}}[rng.Intn(4)]
		return OctAroundSegment(Seg(a, Pt(a.X+d[0]*n, a.Y+d[1]*n)), rng.Int63n(8))
	case 3:
		p := Pt(c(), c())
		return OctFromRect(RectOf(p, p))
	case 4:
		x, y := c(), c()
		if rng.Intn(2) == 0 {
			return OctFromRect(Rect{x, y, x + rng.Int63n(40), y})
		}
		return OctFromRect(Rect{x, y, x, y + rng.Int63n(40)})
	default:
		lo := func() (int64, int64) {
			a := c()
			return a, a + rng.Int63n(70) - 5
		}
		var o Oct8
		o.XLo, o.XHi = lo()
		o.YLo, o.YHi = lo()
		o.SLo, o.SHi = lo()
		o.DLo, o.DHi = lo()
		return o
	}
}

// TestAppendSubtractOctMatchesSubtractOct holds AppendSubtractOct and the
// SubtractOct wrapper to closureSubtractOct on random, degenerate and
// non-canonical octagon pairs: the same pieces in the same order, with
// whatever dst already held left in front.
func TestAppendSubtractOctMatchesSubtractOct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cut, whole, none int
	for k := 0; k < 100000; k++ {
		o, b := randomOct(rng), randomOct(rng)
		if rng.Intn(8) == 0 {
			b = o.Shrink(rng.Int63n(6))
		}
		want := closureSubtractOct(o, b)
		if got := o.SubtractOct(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v \\ %v: SubtractOct %v, reference %v", o, b, got, want)
		}
		prefix := []Oct8{randomOct(rng)}
		if got := o.AppendSubtractOct(prefix, b); len(got) != 1+len(want) || got[0] != prefix[0] ||
			(len(want) > 0 && !reflect.DeepEqual(got[1:], want)) {
			t.Fatalf("%v \\ %v: AppendSubtractOct onto %v gave %v, reference %v", o, b, prefix, got, want)
		}
		switch {
		case len(want) == 0:
			none++
		case len(want) == 1 && want[0] == o:
			whole++
		default:
			cut++
		}
	}
	t.Logf("%d cut, %d left whole, %d left nothing", cut, whole, none)
	if cut < 10000 || whole < 10000 || none < 5000 {
		t.Fatalf("%d cut, %d whole, %d empty results: the draw no longer exercises every branch", cut, whole, none)
	}
}

// pieceSink keeps the benchmarked subtractions from being optimized away.
var pieceSink []Oct8

// BenchmarkSubtractOct subtracts a via octagon and a diagonal wire band
// from a rectangular frame, returning a fresh slice (SubtractOct) or
// appending to a reused one (AppendSubtractOct).
func BenchmarkSubtractOct(b *testing.B) {
	frame := OctFromRect(RectWH(0, 0, 120, 120))
	blockers := []Oct8{
		RegularOct(Pt(60, 60), 30).Grow(7),
		OctAroundSegment(Seg(Pt(0, 0), Pt(120, 120)), 9),
	}
	b.Run("SubtractOct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bl := range blockers {
				pieceSink = frame.SubtractOct(bl)
			}
		}
	})
	b.Run("AppendSubtractOct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bl := range blockers {
				pieceSink = frame.AppendSubtractOct(pieceSink[:0], bl)
			}
		}
	})
}
