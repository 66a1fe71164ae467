package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark around its own call sites; the library itself is not
// instrumented. Each op has one root span (Parent -1) and the layer
// calls it made as children; all spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the round ends. A nil *tracer
// records nothing, so traced and untraced ops share one code path.
// Not safe for concurrent use: traced ops run on one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id; parent -1 opens
// the root span of a new op.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	var op int64
	if parent < 0 {
		t.ops++
		op = t.ops
	} else {
		op = t.spans[parent].Op
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// durationsMS returns the durations of every span with the given name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, s, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(spans []span, parent span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// coverage is the share of op wall time that layer spans account for:
// the self time of every non-root span over the summed root durations.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var layers, wall int64
	for i, s := range spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		} else {
			layers += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(layers) / float64(wall)
}

// checkSpans reports the first malformed span: one that ends before it
// starts, lies outside its parent, belongs to another op than its
// parent, or has negative self time.
func checkSpans(spans []span) error {
	self := selfTimes(spans)
	for i, s := range spans {
		switch {
		case s.ID != i:
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		case s.End < s.Start:
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		case self[i] < 0:
			return fmt.Errorf("span %d (%s) has negative self time", i, s.Name)
		case s.Parent < 0:
			continue
		case s.Parent >= i:
			return fmt.Errorf("span %d (%s) has parent %d opened after it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", i, s.Name, s.Op, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", i, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
