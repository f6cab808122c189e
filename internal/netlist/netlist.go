// Package netlist models circuits to be routed: nets with fixed pins on a
// routing fabric. The paper's via constraint is relaxed only at fixed pins
// (§II-A), so pins carry enough information for the DRC to count those
// unavoidable via violations.
package netlist

import (
	"fmt"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
)

// Pin is a fixed terminal of a net. Pins live on a track point of a layer
// (layer 1 for standard-cell pins).
type Pin struct {
	geom.Point
	Layer int
}

// Net is a set of pins to be electrically connected.
type Net struct {
	ID   int
	Name string
	Pins []Pin
}

// BBox returns the pin bounding box of the net. It panics on a net with
// no pins. It allocates nothing: HPWL calls it inside sort comparators.
func (n *Net) BBox() geom.Rect {
	if len(n.Pins) == 0 {
		panic("netlist: BBox of a net with no pins")
	}
	p0 := n.Pins[0].Point
	r := geom.Rect{X0: p0.X, Y0: p0.Y, X1: p0.X, Y1: p0.Y}
	for _, p := range n.Pins[1:] {
		r.X0 = min(r.X0, p.X)
		r.X1 = max(r.X1, p.X)
		r.Y0 = min(r.Y0, p.Y)
		r.Y1 = max(r.Y1, p.Y)
	}
	return r
}

// HPWL returns the half-perimeter wirelength of the net's pin bounding box,
// the standard lower bound on its routed wirelength.
func (n *Net) HPWL() int {
	b := n.BBox()
	return (b.X1 - b.X0) + (b.Y1 - b.Y0)
}

// Circuit is a routing problem instance: a fabric plus a netlist.
type Circuit struct {
	Name   string
	Fabric *grid.Fabric
	Nets   []*Net
}

// NumPins returns the total pin count over all nets.
func (c *Circuit) NumPins() int {
	n := 0
	for _, net := range c.Nets {
		n += len(net.Pins)
	}
	return n
}

// Validate checks structural sanity: fabric valid, ≥2 pins per net, pins in
// bounds and on existing layers, net IDs dense and unique.
func (c *Circuit) Validate() error {
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	seen := make(map[int]bool, len(c.Nets))
	for i, net := range c.Nets {
		if net == nil {
			return fmt.Errorf("netlist: %s: net %d is nil", c.Name, i)
		}
		if seen[net.ID] {
			return fmt.Errorf("netlist: %s: duplicate net ID %d", c.Name, net.ID)
		}
		seen[net.ID] = true
		if len(net.Pins) < 2 {
			return fmt.Errorf("netlist: %s: net %q has %d pins (<2)", c.Name, net.Name, len(net.Pins))
		}
		for _, p := range net.Pins {
			if !c.Fabric.InBounds(p.Point) {
				return fmt.Errorf("netlist: %s: net %q pin %v out of bounds", c.Name, net.Name, p.Point)
			}
			if p.Layer < 1 || p.Layer > c.Fabric.Layers {
				return fmt.Errorf("netlist: %s: net %q pin on layer %d of %d", c.Name, net.Name, p.Layer, c.Fabric.Layers)
			}
		}
	}
	return nil
}

// PinViaViolations counts pins that sit on a stitching-line column. Vias at
// such pins are unavoidable via violations (the paper allows via violations
// only on fixed pins; the router cannot move them).
func (c *Circuit) PinViaViolations() int {
	n := 0
	for _, net := range c.Nets {
		for _, p := range net.Pins {
			if c.Fabric.IsStitchCol(p.X) {
				n++
			}
		}
	}
	return n
}
