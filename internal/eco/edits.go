// Package eco implements incremental (ECO) rerouting: applying a small
// edit script to an already-routed circuit and recomputing the routing
// by replaying the committed result everywhere the edit provably cannot
// have changed it. The replay is exact — the ECO result is byte-for-byte
// the cold reroute of the edited circuit — see Reroute in eco.go and
// docs/ECO.md for the dirty-region argument.
package eco

import (
	"encoding/json"
	"fmt"
	"io"

	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// Edit ops.
const (
	OpAdd     = "add"     // add a new net (id, optional name, pins)
	OpDelete  = "delete"  // delete net id
	OpMove    = "move"    // replace net id's pins wholesale
	OpMovePin = "movepin" // move one pin of net id to (x, y[, layer])
)

// Pin is a pin location in an edit.
type Pin struct {
	X     int `json:"x"`
	Y     int `json:"y"`
	Layer int `json:"layer"`
}

// Edit is one operation of an edit script. Which fields apply depends on
// Op: add uses ID/Name/Pins, delete uses ID, move uses ID/Pins, movepin
// uses ID/Pin (the pin index) and X/Y/Layer (Layer 0 keeps the pin's
// current layer).
type Edit struct {
	Op    string `json:"op"`
	ID    int    `json:"id"`
	Name  string `json:"name,omitempty"`
	Pins  []Pin  `json:"pins,omitempty"`
	Pin   int    `json:"pin,omitempty"`
	X     int    `json:"x,omitempty"`
	Y     int    `json:"y,omitempty"`
	Layer int    `json:"layer,omitempty"`
}

// Script is an ordered edit list; edits apply sequentially, so
// delete-then-re-add of the same net ID is legal. Margin, when
// positive, overrides the default patch-mode retry margin (PatchMargin)
// around the edited nets' committed routes (a margin past the fabric's
// extent is clamped to it); replay-mode rerouting ignores it (its dirty
// region is derived from recorded footprints, not a margin).
type Script struct {
	Edits  []Edit `json:"edits"`
	Margin int    `json:"margin,omitempty"`
}

// ParseScript decodes a JSON edit script.
func ParseScript(r io.Reader) (*Script, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Script
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("eco: parse edit script: %w", err)
	}
	return &s, nil
}

// editErr wraps a per-edit validation failure with its position.
func editErr(i int, e Edit, format string, args ...any) error {
	return fmt.Errorf("eco: edit %d (%s net %d): %s", i, e.Op, e.ID, fmt.Sprintf(format, args...))
}

// checkPins validates a full pin list against the fabric. Two pins of
// one net on the same (x, y, layer) are rejected: the router treats them
// as one pin cell, and the net it reports as routed is left
// disconnected.
func checkPins(c *netlist.Circuit, i int, e Edit) error {
	if len(e.Pins) < 2 {
		return editErr(i, e, "needs at least 2 pins, got %d", len(e.Pins))
	}
	f := c.Fabric
	seen := make(map[Pin]int, len(e.Pins))
	for pi, p := range e.Pins {
		if p.X < 0 || p.X >= f.XTracks || p.Y < 0 || p.Y >= f.YTracks {
			return editErr(i, e, "pin %d at (%d,%d) outside the %d x %d fabric", pi, p.X, p.Y, f.XTracks, f.YTracks)
		}
		if p.Layer < 1 || p.Layer > f.Layers {
			return editErr(i, e, "pin %d layer %d outside [1,%d]", pi, p.Layer, f.Layers)
		}
		if pj, dup := seen[p]; dup {
			return editErr(i, e, "pins %d and %d both at (%d,%d) on layer %d", pj, pi, p.X, p.Y, p.Layer)
		}
		seen[p] = pi
	}
	return nil
}

func toNetlistPins(pins []Pin) []netlist.Pin {
	out := make([]netlist.Pin, len(pins))
	for i, p := range pins {
		out[i] = netlist.Pin{Point: geom.Point{X: p.X, Y: p.Y}, Layer: p.Layer}
	}
	return out
}

// Apply runs the script against the circuit and returns the edited
// circuit. The input is never mutated: unedited nets are shared (they
// are read-only everywhere downstream), edited ones are fresh values.
// Unedited nets keep their relative order; added (and re-added) nets
// append at the end — slot order only indexes result arrays, the
// routing order itself is the deterministic multilevel schedule.
func (s *Script) Apply(c *netlist.Circuit) (*netlist.Circuit, error) {
	nets := append([]*netlist.Net(nil), c.Nets...)
	pos := make(map[int]int, len(nets))
	for i, n := range nets {
		pos[n.ID] = i
	}
	reindex := func(from int) {
		for i := from; i < len(nets); i++ {
			pos[nets[i].ID] = i
		}
	}
	for i, e := range s.Edits {
		switch e.Op {
		case OpAdd:
			if _, ok := pos[e.ID]; ok {
				return nil, editErr(i, e, "net already exists")
			}
			if e.ID < 0 {
				return nil, editErr(i, e, "net ID must be non-negative")
			}
			if err := checkPins(c, i, e); err != nil {
				return nil, err
			}
			name := e.Name
			if name == "" {
				name = fmt.Sprintf("eco%d", e.ID)
			}
			pos[e.ID] = len(nets)
			nets = append(nets, &netlist.Net{ID: e.ID, Name: name, Pins: toNetlistPins(e.Pins)})
		case OpDelete:
			p, ok := pos[e.ID]
			if !ok {
				return nil, editErr(i, e, "net not found")
			}
			nets = append(nets[:p], nets[p+1:]...)
			delete(pos, e.ID)
			reindex(p)
		case OpMove:
			p, ok := pos[e.ID]
			if !ok {
				return nil, editErr(i, e, "net not found")
			}
			if err := checkPins(c, i, e); err != nil {
				return nil, err
			}
			name := e.Name
			if name == "" {
				name = nets[p].Name
			}
			nets[p] = &netlist.Net{ID: e.ID, Name: name, Pins: toNetlistPins(e.Pins)}
		case OpMovePin:
			p, ok := pos[e.ID]
			if !ok {
				return nil, editErr(i, e, "net not found")
			}
			old := nets[p]
			if e.Pin < 0 || e.Pin >= len(old.Pins) {
				return nil, editErr(i, e, "pin index %d outside [0,%d)", e.Pin, len(old.Pins))
			}
			layer := e.Layer
			if layer == 0 {
				layer = old.Pins[e.Pin].Layer
			}
			f := c.Fabric
			if e.X < 0 || e.X >= f.XTracks || e.Y < 0 || e.Y >= f.YTracks {
				return nil, editErr(i, e, "target (%d,%d) outside the %d x %d fabric", e.X, e.Y, f.XTracks, f.YTracks)
			}
			if layer < 1 || layer > f.Layers {
				return nil, editErr(i, e, "target layer %d outside [1,%d]", layer, f.Layers)
			}
			moved := netlist.Pin{Point: geom.Point{X: e.X, Y: e.Y}, Layer: layer}
			for pj, q := range old.Pins {
				if pj != e.Pin && q == moved {
					return nil, editErr(i, e, "target (%d,%d) on layer %d is pin %d's cell", e.X, e.Y, layer, pj)
				}
			}
			pins := append([]netlist.Pin(nil), old.Pins...)
			pins[e.Pin] = moved
			nets[p] = &netlist.Net{ID: old.ID, Name: old.Name, Pins: pins}
		default:
			return nil, editErr(i, e, "unknown op %q", e.Op)
		}
	}
	out := &netlist.Circuit{Name: c.Name, Fabric: c.Fabric, Nets: nets}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("eco: edited circuit invalid: %w", err)
	}
	return out, nil
}

// match pairs every slot of edited, Apply's output on pc, with the slot
// of pc whose recorded state it may reuse: an unedited net's parent
// slot, or -1 for a net whose ID is in ids (the script's DirtyIDs).
// Apply keeps unedited nets in their parent order, so one forward walk
// over the parent's slots finds each one. A net deleted and re-added
// under its old ID is unmatched, so its old slot is stale.
func match(pc, edited *netlist.Circuit, ids map[int]bool) plan.Match {
	from := make(plan.Match, len(edited.Nets))
	ps := 0
	for i, n := range edited.Nets {
		from[i] = -1
		if ids[n.ID] {
			continue
		}
		for pc.Nets[ps].ID != n.ID {
			ps++
		}
		from[i] = ps
	}
	return from
}

// Validate reports whether the script applies cleanly to the circuit.
func (s *Script) Validate(c *netlist.Circuit) error {
	_, err := s.Apply(c)
	return err
}

// DirtyIDs returns every net ID the script touches (added, deleted,
// moved, or pin-moved).
func (s *Script) DirtyIDs() map[int]bool {
	out := make(map[int]bool, len(s.Edits))
	for _, e := range s.Edits {
		out[e.ID] = true
	}
	return out
}
