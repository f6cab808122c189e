package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. Spans of one op share Op;
// Parent is the ID of the enclosing span (0 for the op's root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) interval() interval { return interval{s.Start, s.End} }

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so untraced ops call the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
	ops   int
}

// begin opens an op's root span now and returns the op's ID and root
// span ID.
func (r *recorder) begin(name string) (op, root int) {
	return r.beginAt(name, time.Now(), time.Time{})
}

// beginAt records an op's root span with known bounds.
func (r *recorder) beginAt(name string, start, end time.Time) (op, root int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	r.ops++
	op = r.ops
	r.mu.Unlock()
	return op, r.add(op, 0, name, start, end)
}

// add records a span with known bounds; a zero end is filled by finish.
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// finish closes an open span now.
func (r *recorder) finish(id int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// time runs fn inside a child span of parent.
func (r *recorder) time(op, parent int, name string, fn func()) {
	id := r.add(op, parent, name, time.Now(), time.Time{})
	fn()
	r.finish(id)
}

// opProfile is one op's breakdown: the root duration, its self time, and
// the summed duration of the root's children by name.
type opProfile struct {
	total, self time.Duration
	children    map[string]time.Duration
	// closed is the sum of every span's self time in the op's tree,
	// which equals total when the tree is well formed.
	closed time.Duration
}

// profile breaks down op's span tree.
func (r *recorder) profile(op int) opProfile {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]interval{}
	var root *span
	var mine []*span
	for i := range r.spans {
		s := &r.spans[i]
		if s.Op != op {
			continue
		}
		mine = append(mine, s)
		if s.Parent == 0 {
			root = s
		} else {
			kids[s.Parent] = append(kids[s.Parent], s.interval())
		}
	}
	p := opProfile{children: map[string]time.Duration{}}
	if root == nil {
		return p
	}
	p.total = root.End.Sub(root.Start)
	for _, s := range mine {
		self := selfTime(s.interval(), kids[s.ID])
		p.closed += self
		switch {
		case s == root:
			p.self = self
		case s.Parent == root.ID:
			p.children[s.Name] += s.End.Sub(s.Start)
		}
	}
	return p
}

// write stores every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
