package design

import (
	"reflect"
	"testing"

	"rdlroute/internal/geom"
)

// tiny returns a small hand-built valid design for unit tests.
func tiny() *Design {
	return &Design{
		Name:       "tiny",
		Outline:    geom.RectWH(0, 0, 1000, 600),
		WireLayers: 2,
		Rules:      Rules{Spacing: 5, WireWidth: 4, ViaWidth: 16},
		Chips: []Chip{
			{Name: "a", Box: geom.RectWH(100, 100, 200, 200)},
			{Name: "b", Box: geom.RectWH(600, 100, 200, 200)},
		},
		IOPads: []IOPad{
			{ID: 0, Chip: 0, Center: geom.Pt(280, 150), HalfW: 8},
			{ID: 1, Chip: 0, Center: geom.Pt(280, 250), HalfW: 8},
			{ID: 2, Chip: 1, Center: geom.Pt(620, 150), HalfW: 8},
			{ID: 3, Chip: 1, Center: geom.Pt(620, 250), HalfW: 8},
		},
		BumpPads: []BumpPad{
			{ID: 0, Center: geom.Pt(450, 450), W: 40},
		},
		Nets: []Net{
			{ID: 0, P1: PadRef{IOKind, 0}, P2: PadRef{IOKind, 2}},
			{ID: 1, P1: PadRef{IOKind, 1}, P2: PadRef{IOKind, 3}},
		},
	}
}

func TestTinyValid(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatalf("tiny design invalid: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Design)
	}{
		{"no layers", func(d *Design) { d.WireLayers = 0 }},
		{"bad rules", func(d *Design) { d.Rules.Spacing = 0 }},
		{"empty outline", func(d *Design) { d.Outline = geom.Rect{X0: 5, Y0: 5, X1: 1, Y1: 1} }},
		{"chip outside", func(d *Design) { d.Chips[0].Box = geom.RectWH(-50, 0, 100, 100) }},
		{"pad outside chip", func(d *Design) { d.IOPads[0].Center = geom.Pt(500, 500) }},
		{"pad bad chip ref", func(d *Design) { d.IOPads[0].Chip = 9 }},
		{"net bad pad", func(d *Design) { d.Nets[0].P2.Index = 99 }},
		{"net self loop", func(d *Design) { d.Nets[0].P2 = d.Nets[0].P1 }},
		{"pad reused", func(d *Design) { d.Nets[1].P1 = d.Nets[0].P1 }},
		{"obstacle bad layer", func(d *Design) {
			d.Obstacles = append(d.Obstacles, Obstacle{Layer: 5, Box: geom.RectWH(0, 0, 10, 10)})
		}},
		{"pad spacing", func(d *Design) { d.IOPads[1].Center = geom.Pt(282, 160) }},
	}
	for _, c := range cases {
		d := tiny()
		c.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestStats(t *testing.T) {
	s := tiny().Stats()
	if s.Chips != 2 || s.Q != 4 || s.G != 1 || s.N != 2 || s.WireLayers != 2 || s.ViaLayers != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGenerateDenseSuiteMatchesTableI(t *testing.T) {
	want := []Stats{
		{Name: "dense1", Chips: 2, Q: 44, G: 324, N: 22, WireLayers: 3, ViaLayers: 4},
		{Name: "dense2", Chips: 3, Q: 92, G: 784, N: 46, WireLayers: 3, ViaLayers: 4},
		{Name: "dense3", Chips: 5, Q: 160, G: 308, N: 80, WireLayers: 5, ViaLayers: 6},
		{Name: "dense4", Chips: 6, Q: 222, G: 684, N: 111, WireLayers: 5, ViaLayers: 6},
		{Name: "dense5", Chips: 9, Q: 522, G: 1444, N: 261, WireLayers: 5, ViaLayers: 6},
	}
	for i, spec := range DenseSuite() {
		d, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got := d.Stats(); got != want[i] {
			t.Errorf("%s: stats = %+v, want %+v", spec.Name, got, want[i])
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", spec.Name, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, err := DenseSpec("dense1")
	if err != nil {
		t.Fatal(err)
	}
	d1, err1 := Generate(spec)
	d2, err2 := Generate(spec)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Error("generator not deterministic for identical specs")
	}
}

func TestGenerateNetsAreInterChip(t *testing.T) {
	d, err := Generate(GenSpec{Name: "x", Chips: 3, IOPads: 30, BumpPads: 16, WireLayers: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cross := 0
	for _, n := range d.Nets {
		if !n.InterChip() {
			t.Fatalf("net %d is not an I/O pad pair", n.ID)
		}
		if d.PadChip(n.P1) != d.PadChip(n.P2) {
			cross++
		}
	}
	if cross < len(d.Nets)*3/4 {
		t.Errorf("only %d of %d nets cross chips", cross, len(d.Nets))
	}
}

func TestGenerateBadSpecs(t *testing.T) {
	if _, err := Generate(GenSpec{Name: "bad", Chips: 0, IOPads: 10, WireLayers: 1}); err == nil {
		t.Error("zero chips accepted")
	}
	if _, err := Generate(GenSpec{Name: "bad", Chips: 1, IOPads: 1, WireLayers: 1}); err == nil {
		t.Error("single pad accepted")
	}
	if _, err := DenseSpec("nonexistent"); err == nil {
		t.Error("unknown benchmark name accepted")
	}
}

func TestGeneratedPadsPeripheralMajority(t *testing.T) {
	// Most pads should sit near their chip boundary (peripheral I/O), since
	// the router's preprocessing keys on that.
	d, err := Generate(GenSpec{Name: "p", Chips: 2, IOPads: 40, BumpPads: 9, WireLayers: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	peripheral := 0
	for _, p := range d.IOPads {
		box := d.Chips[p.Chip].Box
		edgeDist := geom.Min64(
			geom.Min64(p.Center.X-box.X0, box.X1-p.Center.X),
			geom.Min64(p.Center.Y-box.Y0, box.Y1-p.Center.Y),
		)
		if edgeDist <= 30 {
			peripheral++
		}
	}
	if peripheral < len(d.IOPads)*2/3 {
		t.Errorf("peripheral pads = %d of %d", peripheral, len(d.IOPads))
	}
}

func TestGeneratedPadsOnRoutingGrid(t *testing.T) {
	// Pad centers must land on the Grid-pitch routing lattice so the
	// detailed router can reach them directly.
	for _, spec := range DenseSuite() {
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.IOPads {
			if p.Center.X%Grid != 0 || p.Center.Y%Grid != 0 {
				t.Fatalf("%s: pad %d center %v off grid", spec.Name, p.ID, p.Center)
			}
		}
		for _, p := range d.BumpPads {
			if p.Center.X%Grid != 0 || p.Center.Y%Grid != 0 {
				t.Fatalf("%s: bump %d center %v off grid", spec.Name, p.ID, p.Center)
			}
		}
	}
}
