// Package design defines the InFO-package data model the router operates
// on — chips, I/O pads, bump pads, pre-assigned nets, obstacles, design
// rules and the RDL layer stack — together with validation and a
// benchmark generator that reproduces the published statistics of the
// paper's proprietary dense1..dense5 circuits. Designs are stored and
// exchanged as rdl-design/v1 documents (package codec).
package design

import (
	"fmt"

	"rdlroute/internal/geom"
)

// PadKind distinguishes the two pad families of the package.
type PadKind uint8

// Pad kinds.
const (
	IOKind   PadKind = iota // rectangular pad on the top RDL
	BumpKind                // octagonal pad on the bottom RDL
)

// String implements fmt.Stringer.
func (k PadKind) String() string {
	if k == IOKind {
		return "io"
	}
	return "bump"
}

// PadRef identifies one endpoint of a pre-assigned net.
type PadRef struct {
	Kind  PadKind
	Index int // index into Design.IOPads or Design.BumpPads
}

// IOPad is a rectangular I/O pad attached to the top RDL for
// chip-to-package contact.
type IOPad struct {
	ID     int
	Chip   int // owning chip index, −1 for chipless pads
	Center geom.Point
	HalfW  int64 // half the pad's side length
}

// Box returns the pad's rectangle.
func (p IOPad) Box() geom.Rect {
	return geom.Rect{
		X0: p.Center.X - p.HalfW, Y0: p.Center.Y - p.HalfW,
		X1: p.Center.X + p.HalfW, Y1: p.Center.Y + p.HalfW,
	}
}

// BumpPad is an octagonal pad attached to the bottom RDL for
// package-to-board contact.
type BumpPad struct {
	ID     int
	Center geom.Point
	W      int64 // bounding-box width of the octagon
}

// Oct returns the pad's octagonal outline.
func (p BumpPad) Oct() geom.Oct8 { return geom.RegularOct(p.Center, p.W) }

// Net is a pre-assigned pad pair: either two I/O pads (an inter-chip
// connection) or an I/O pad and a bump pad (a chip-to-board connection).
type Net struct {
	ID     int
	P1, P2 PadRef
}

// InterChip reports whether the net connects two I/O pads.
func (n Net) InterChip() bool { return n.P1.Kind == IOKind && n.P2.Kind == IOKind }

// Obstacle is a rectangular routing blockage on one wire layer.
type Obstacle struct {
	Layer int
	Box   geom.Rect
}

// FixedVia is a pre-assigned via (the paper's V_p): an octagonal via that
// exists before routing, joining wire layers Slab and Slab+1. Net is the
// owning net index, or −1 for a netless blockage via.
type FixedVia struct {
	Net    int
	Center geom.Point
	Slab   int
}

// Oct returns the via's outline under the design rules.
func (v FixedVia) Oct(r Rules) geom.Oct8 { return geom.RegularOct(v.Center, r.ViaWidth) }

// Rules carries the design rules of Section II-B.
type Rules struct {
	Spacing   int64 // minimum spacing s between components of different nets
	WireWidth int64 // wire width s_w
	ViaWidth  int64 // via width s_v (bounding box of the octagonal via)
}

// Chip is a die inside the molding compound; its shadow on the RDLs is the
// fan-in region.
type Chip struct {
	Name string
	Box  geom.Rect
}

// Design is a complete routing instance.
type Design struct {
	Name       string
	Outline    geom.Rect // package boundary
	WireLayers int       // |L_w|; via layers |L_v| = WireLayers + 1
	Rules      Rules
	Chips      []Chip
	IOPads     []IOPad
	BumpPads   []BumpPad
	Nets       []Net
	Obstacles  []Obstacle
	FixedVias  []FixedVia
}

// ViaLayers returns |L_v| for the stack (one via layer above each wire
// layer plus one below the bottom, per the paper's alternating structure).
func (d *Design) ViaLayers() int { return d.WireLayers + 1 }

// PadCenter returns the center point of the referenced pad.
func (d *Design) PadCenter(r PadRef) geom.Point {
	if r.Kind == IOKind {
		return d.IOPads[r.Index].Center
	}
	return d.BumpPads[r.Index].Center
}

// PadChip returns the owning chip of the referenced pad, or −1 for bump
// pads and chipless I/O pads.
func (d *Design) PadChip(r PadRef) int {
	if r.Kind == IOKind {
		return d.IOPads[r.Index].Chip
	}
	return -1
}

// Validate checks structural consistency: pad/net references in range,
// chips inside the outline, pads inside their chips, positive rules, and
// pairwise pad spacing. It returns the first violation found.
func (d *Design) Validate() error {
	if d.WireLayers < 1 {
		return fmt.Errorf("design %s: needs at least one wire layer", d.Name)
	}
	if d.Rules.Spacing <= 0 || d.Rules.WireWidth <= 0 || d.Rules.ViaWidth <= 0 {
		return fmt.Errorf("design %s: rules must be positive: %+v", d.Name, d.Rules)
	}
	if d.Outline.Empty() {
		return fmt.Errorf("design %s: empty outline", d.Name)
	}
	for i, c := range d.Chips {
		if !d.Outline.ContainsRect(c.Box) {
			return fmt.Errorf("design %s: chip %d (%s) outside outline", d.Name, i, c.Name)
		}
	}
	for i, p := range d.IOPads {
		if p.Chip < -1 || p.Chip >= len(d.Chips) {
			return fmt.Errorf("design %s: io pad %d references chip %d", d.Name, i, p.Chip)
		}
		if p.Chip >= 0 && !d.Chips[p.Chip].Box.ContainsRect(p.Box()) {
			return fmt.Errorf("design %s: io pad %d escapes chip %d", d.Name, i, p.Chip)
		}
		if !d.Outline.ContainsRect(p.Box()) {
			return fmt.Errorf("design %s: io pad %d outside outline", d.Name, i)
		}
	}
	for i, p := range d.BumpPads {
		if !d.Outline.ContainsRect(p.Oct().BBox()) {
			return fmt.Errorf("design %s: bump pad %d outside outline", d.Name, i)
		}
	}
	seen := make(map[[2]int]bool)
	for i, n := range d.Nets {
		for _, r := range []PadRef{n.P1, n.P2} {
			switch r.Kind {
			case IOKind:
				if r.Index < 0 || r.Index >= len(d.IOPads) {
					return fmt.Errorf("design %s: net %d references io pad %d", d.Name, i, r.Index)
				}
			case BumpKind:
				if r.Index < 0 || r.Index >= len(d.BumpPads) {
					return fmt.Errorf("design %s: net %d references bump pad %d", d.Name, i, r.Index)
				}
			}
		}
		if n.P1 == n.P2 {
			return fmt.Errorf("design %s: net %d connects a pad to itself", d.Name, i)
		}
		for _, r := range []PadRef{n.P1, n.P2} {
			key := [2]int{int(r.Kind), r.Index}
			if seen[key] {
				return fmt.Errorf("design %s: pad %v used by more than one net", d.Name, r)
			}
			seen[key] = true
		}
	}
	for i, o := range d.Obstacles {
		if o.Layer < 0 || o.Layer >= d.WireLayers {
			return fmt.Errorf("design %s: obstacle %d on layer %d of %d", d.Name, i, o.Layer, d.WireLayers)
		}
	}
	for i, v := range d.FixedVias {
		if v.Slab < 0 || v.Slab >= d.WireLayers-1 {
			return fmt.Errorf("design %s: fixed via %d on slab %d of %d", d.Name, i, v.Slab, d.WireLayers-1)
		}
		if v.Net < -1 || v.Net >= len(d.Nets) {
			return fmt.Errorf("design %s: fixed via %d references net %d", d.Name, i, v.Net)
		}
		if !d.Outline.Contains(v.Center) {
			return fmt.Errorf("design %s: fixed via %d outside outline", d.Name, i)
		}
	}
	// On single-wire-layer designs, I/O pads and bump pads share the only
	// layer and must keep spacing from each other too.
	if d.WireLayers == 1 {
		for i, p := range d.IOPads {
			for j, b := range d.BumpPads {
				minGap := p.HalfW + b.W/2 + d.Rules.Spacing
				dx := geom.Abs64(p.Center.X - b.Center.X)
				dy := geom.Abs64(p.Center.Y - b.Center.Y)
				if dx < minGap && dy < minGap {
					return fmt.Errorf("design %s: io pad %d and bump pad %d share layer 0 and violate spacing", d.Name, i, j)
				}
			}
		}
	}
	// Pairwise bump pad spacing (octagon bounding boxes, conservative).
	for i := range d.BumpPads {
		for j := i + 1; j < len(d.BumpPads); j++ {
			a, b := d.BumpPads[i], d.BumpPads[j]
			minGap := (a.W+b.W)/2 + d.Rules.Spacing
			dx := geom.Abs64(a.Center.X - b.Center.X)
			dy := geom.Abs64(a.Center.Y - b.Center.Y)
			if dx < minGap && dy < minGap {
				return fmt.Errorf("design %s: bump pads %d and %d violate spacing", d.Name, i, j)
			}
		}
	}
	// Pairwise I/O pad spacing within each chip (the irregular-structure
	// rule: arbitrary positions, but minimum spacing holds).
	for i := range d.IOPads {
		for j := i + 1; j < len(d.IOPads); j++ {
			a, b := d.IOPads[i], d.IOPads[j]
			if a.Chip != b.Chip {
				continue
			}
			gap := a.Box().Expand(d.Rules.Spacing).Intersect(b.Box())
			if !gap.Empty() && gap.Area() > 0 {
				return fmt.Errorf("design %s: io pads %d and %d violate spacing", d.Name, i, j)
			}
		}
	}
	return nil
}

// Stats summarizes a design in the shape of the paper's Table I row.
type Stats struct {
	Name       string
	Chips      int
	Q          int // |Q| I/O pads
	G          int // |G| bump pads
	N          int // |N| pre-assigned nets
	WireLayers int // |L_w|
	ViaLayers  int // |L_v|
}

// Stats returns the Table-I-style statistics of d.
func (d *Design) Stats() Stats {
	return Stats{
		Name:       d.Name,
		Chips:      len(d.Chips),
		Q:          len(d.IOPads),
		G:          len(d.BumpPads),
		N:          len(d.Nets),
		WireLayers: d.WireLayers,
		ViaLayers:  d.ViaLayers(),
	}
}
