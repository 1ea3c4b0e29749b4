// Package eco implements engineering-change-order edits: a delta — move,
// add or remove nets, pads and obstacles — applied to a base design to
// produce the edited design, which is then routed cold like any other
// design. Deltas travel as rdl-design-delta/v1 documents (internal/codec)
// that name their base design by content hash; the serving layer resolves
// that hash from its result cache.
package eco

import (
	"fmt"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// MovePad relocates one pad of the base design to a new center.
type MovePad struct {
	Index int
	To    geom.Point
}

// MoveObstacle relocates one obstacle of the base design (same size).
type MoveObstacle struct {
	Index int
	To    geom.Point // new center of the obstacle box
}

// Delta is one edit against a base design, identified (optionally) by the
// hash of its canonical codec encoding. Application order is fixed:
// moves first (indices address the base tables), then additions (appended;
// net pad references address the post-addition pad tables), then removals
// (indices address the post-addition tables; references into removed
// entries are remapped or rejected). The edited design must validate.
type Delta struct {
	// Base is the canonical-bytes hash (sha256 hex of the codec encoding)
	// of the design this delta applies to; empty means unchecked.
	Base string
	// Name, when non-empty, renames the edited design.
	Name string

	MoveIOPads    []MovePad
	MoveBumpPads  []MovePad
	MoveObstacles []MoveObstacle

	AddIOPads    []design.IOPad
	AddBumpPads  []design.BumpPad
	AddNets      []design.Net
	AddObstacles []design.Obstacle

	RemoveNets      []int
	RemoveIOPads    []int
	RemoveBumpPads  []int
	RemoveObstacles []int
}

// Empty reports whether the delta performs no edit at all.
func (dl *Delta) Empty() bool {
	return len(dl.MoveIOPads) == 0 && len(dl.MoveBumpPads) == 0 &&
		len(dl.MoveObstacles) == 0 && len(dl.AddIOPads) == 0 &&
		len(dl.AddBumpPads) == 0 && len(dl.AddNets) == 0 &&
		len(dl.AddObstacles) == 0 && len(dl.RemoveNets) == 0 &&
		len(dl.RemoveIOPads) == 0 && len(dl.RemoveBumpPads) == 0 &&
		len(dl.RemoveObstacles) == 0
}

// Apply produces the edited design: a deep copy of base with the delta's
// moves, additions and removals applied in that order, validated. The base
// is never mutated. Removing a pad still referenced by a surviving net is
// an error; fixed vias of removed nets are dropped.
func Apply(base *design.Design, dl *Delta) (*design.Design, error) {
	d := clone(base)
	if dl.Name != "" {
		d.Name = dl.Name
	}

	// Moves address base indices.
	for _, mv := range dl.MoveIOPads {
		if mv.Index < 0 || mv.Index >= len(base.IOPads) {
			return nil, fmt.Errorf("eco: move_io_pads index %d out of range [0,%d)", mv.Index, len(base.IOPads))
		}
		d.IOPads[mv.Index].Center = mv.To
	}
	for _, mv := range dl.MoveBumpPads {
		if mv.Index < 0 || mv.Index >= len(base.BumpPads) {
			return nil, fmt.Errorf("eco: move_bump_pads index %d out of range [0,%d)", mv.Index, len(base.BumpPads))
		}
		d.BumpPads[mv.Index].Center = mv.To
	}
	for _, mv := range dl.MoveObstacles {
		if mv.Index < 0 || mv.Index >= len(base.Obstacles) {
			return nil, fmt.Errorf("eco: move_obstacles index %d out of range [0,%d)", mv.Index, len(base.Obstacles))
		}
		b := d.Obstacles[mv.Index].Box
		w, h := b.W(), b.H()
		d.Obstacles[mv.Index].Box = geom.Rect{
			X0: mv.To.X - w/2, Y0: mv.To.Y - h/2,
			X1: mv.To.X - w/2 + w, Y1: mv.To.Y - h/2 + h,
		}
	}

	// Additions append; added nets may reference base or added pads.
	d.IOPads = append(d.IOPads, dl.AddIOPads...)
	d.BumpPads = append(d.BumpPads, dl.AddBumpPads...)
	d.Nets = append(d.Nets, dl.AddNets...)
	d.Obstacles = append(d.Obstacles, dl.AddObstacles...)

	// Removals address post-addition indices. Each table is removed with
	// the same remapping discipline: delete the marked entries, then walk
	// every reference and either remap it past the deletions or reject.
	if err := removeNets(d, dl.RemoveNets); err != nil {
		return nil, err
	}
	if err := removePads(d, design.IOKind, dl.RemoveIOPads); err != nil {
		return nil, err
	}
	if err := removePads(d, design.BumpKind, dl.RemoveBumpPads); err != nil {
		return nil, err
	}
	if err := removeObstacles(d, dl.RemoveObstacles); err != nil {
		return nil, err
	}

	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("eco: edited design invalid: %w", err)
	}
	return d, nil
}

// clone deep-copies a design (all slices are owned by the copy).
func clone(d *design.Design) *design.Design {
	c := *d
	c.Chips = append([]design.Chip(nil), d.Chips...)
	c.IOPads = append([]design.IOPad(nil), d.IOPads...)
	c.BumpPads = append([]design.BumpPad(nil), d.BumpPads...)
	c.Nets = append([]design.Net(nil), d.Nets...)
	c.Obstacles = append([]design.Obstacle(nil), d.Obstacles...)
	c.FixedVias = append([]design.FixedVia(nil), d.FixedVias...)
	return &c
}

// checkRemoval validates and normalizes removal indices against a table
// length: in range, no duplicates, returned sorted ascending.
func checkRemoval(what string, idx []int, n int) ([]int, error) {
	out := append([]int(nil), idx...)
	sort.Ints(out)
	for k, i := range out {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("eco: %s index %d out of range [0,%d)", what, i, n)
		}
		if k > 0 && out[k-1] == i {
			return nil, fmt.Errorf("eco: %s index %d removed twice", what, i)
		}
	}
	return out, nil
}

// remapTable builds the old→new index map for a table after removing the
// (sorted) indices; removed entries map to −1.
func remapTable(n int, removed []int) []int {
	m := make([]int, n)
	r, shift := 0, 0
	for i := 0; i < n; i++ {
		if r < len(removed) && removed[r] == i {
			m[i] = -1
			r++
			shift++
			continue
		}
		m[i] = i - shift
	}
	return m
}

func removeNets(d *design.Design, idx []int) error {
	if len(idx) == 0 {
		return nil
	}
	rem, err := checkRemoval("remove_nets", idx, len(d.Nets))
	if err != nil {
		return err
	}
	m := remapTable(len(d.Nets), rem)
	nets := d.Nets[:0:0]
	for i, n := range d.Nets {
		if m[i] >= 0 {
			nets = append(nets, n)
		}
	}
	d.Nets = nets
	// Fixed vias of removed nets are dropped with them; survivors remap.
	vias := d.FixedVias[:0:0]
	for _, v := range d.FixedVias {
		if v.Net >= 0 && v.Net < len(m) {
			if m[v.Net] < 0 {
				continue
			}
			v.Net = m[v.Net]
		}
		vias = append(vias, v)
	}
	d.FixedVias = vias
	return nil
}

func removePads(d *design.Design, kind design.PadKind, idx []int) error {
	if len(idx) == 0 {
		return nil
	}
	what := "remove_io_pads"
	n := len(d.IOPads)
	if kind == design.BumpKind {
		what, n = "remove_bump_pads", len(d.BumpPads)
	}
	rem, err := checkRemoval(what, idx, n)
	if err != nil {
		return err
	}
	m := remapTable(n, rem)
	for ni := range d.Nets {
		for _, ref := range []*design.PadRef{&d.Nets[ni].P1, &d.Nets[ni].P2} {
			if ref.Kind != kind {
				continue
			}
			if nm := m[ref.Index]; nm < 0 {
				return fmt.Errorf("eco: %s removes pad %d still used by net %d", what, ref.Index, ni)
			} else {
				ref.Index = nm
			}
		}
	}
	if kind == design.IOKind {
		pads := d.IOPads[:0:0]
		for i, p := range d.IOPads {
			if m[i] >= 0 {
				pads = append(pads, p)
			}
		}
		d.IOPads = pads
	} else {
		pads := d.BumpPads[:0:0]
		for i, p := range d.BumpPads {
			if m[i] >= 0 {
				pads = append(pads, p)
			}
		}
		d.BumpPads = pads
	}
	return nil
}

func removeObstacles(d *design.Design, idx []int) error {
	if len(idx) == 0 {
		return nil
	}
	rem, err := checkRemoval("remove_obstacles", idx, len(d.Obstacles))
	if err != nil {
		return err
	}
	m := remapTable(len(d.Obstacles), rem)
	obs := d.Obstacles[:0:0]
	for i, o := range d.Obstacles {
		if m[i] >= 0 {
			obs = append(obs, o)
		}
	}
	d.Obstacles = obs
	return nil
}
