package design

import "testing"

func extSpec() GenSpec {
	return GenSpec{
		Name:       "ext",
		Chips:      3,
		IOPads:     48,
		BumpPads:   64,
		WireLayers: 4,
		Seed:       17,
		BoardFrac:  0.25,
		Obstacles:  6,
		FixedVias:  8,
	}
}

func TestGenerateWithExtensions(t *testing.T) {
	d, err := Generate(extSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	board := 0
	for _, n := range d.Nets {
		if n.P2.Kind == BumpKind {
			board++
		}
	}
	if want := len(d.Nets) / 4; board != want {
		t.Errorf("board nets = %d, want %d", board, want)
	}
	if len(d.Obstacles) != 6 {
		t.Errorf("obstacles = %d, want 6", len(d.Obstacles))
	}
	for _, o := range d.Obstacles {
		if o.Layer < 1 || o.Layer > d.WireLayers-2 {
			t.Errorf("obstacle on layer %d, want middle layers", o.Layer)
		}
	}
	if len(d.FixedVias) != 8 {
		t.Errorf("fixed vias = %d, want 8", len(d.FixedVias))
	}
	for _, v := range d.FixedVias {
		if v.Net != -1 {
			t.Errorf("generated fixed via should be netless, got net %d", v.Net)
		}
	}
}

func TestBoardNetsUseDistinctBumps(t *testing.T) {
	d, err := Generate(extSpec())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, n := range d.Nets {
		if n.P2.Kind != BumpKind {
			continue
		}
		if seen[n.P2.Index] {
			t.Errorf("bump %d reused", n.P2.Index)
		}
		seen[n.P2.Index] = true
	}
}

func TestValidateFixedVias(t *testing.T) {
	d := tiny()
	d.FixedVias = append(d.FixedVias, FixedVia{Net: -1, Center: d.Outline.Center(), Slab: 0})
	if err := d.Validate(); err != nil {
		t.Errorf("valid fixed via rejected: %v", err)
	}
	d.FixedVias[0].Slab = 5
	if err := d.Validate(); err == nil {
		t.Error("bad slab accepted")
	}
	d.FixedVias[0].Slab = 0
	d.FixedVias[0].Net = 99
	if err := d.Validate(); err == nil {
		t.Error("bad net ref accepted")
	}
}

func TestObstaclesNeedMiddleLayers(t *testing.T) {
	spec := extSpec()
	spec.WireLayers = 2
	spec.FixedVias = 0
	if _, err := Generate(spec); err == nil {
		t.Error("obstacles on a 2-layer design should be rejected")
	}
}
