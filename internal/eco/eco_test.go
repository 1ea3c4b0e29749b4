package eco_test

import (
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/eco"
)

func dense(t *testing.T, name string) *design.Design {
	t.Helper()
	spec, err := design.DenseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestApplyRemovalsRemap(t *testing.T) {
	base := dense(t, "dense1")
	// Removing net 0 must renumber fixed-via owners and survive validation.
	d2, err := eco.Apply(base, &eco.Delta{RemoveNets: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Nets) != len(base.Nets)-1 {
		t.Fatalf("nets %d, want %d", len(d2.Nets), len(base.Nets)-1)
	}
	if base.Nets[1] != d2.Nets[0] {
		t.Fatal("net table did not shift")
	}
	// Removing a referenced pad must fail.
	ref := base.Nets[0].P1
	if ref.Kind == design.IOKind {
		if _, err := eco.Apply(base, &eco.Delta{RemoveIOPads: []int{ref.Index}}); err == nil {
			t.Fatal("removing a referenced pad succeeded")
		}
	}
	// Out-of-range and duplicate removals must fail.
	if _, err := eco.Apply(base, &eco.Delta{RemoveNets: []int{len(base.Nets)}}); err == nil {
		t.Fatal("out-of-range removal succeeded")
	}
	if _, err := eco.Apply(base, &eco.Delta{RemoveNets: []int{1, 1}}); err == nil {
		t.Fatal("duplicate removal succeeded")
	}
	// Base design is never mutated.
	if base.Nets[0].ID == d2.Nets[0].ID {
		t.Fatal("apply mutated the base design")
	}
}
