package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side
// of the call. Times are nanoseconds since the tracer's origin; parent is
// the index of the enclosing span (-1 at the root) and run is the timed
// pass the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so untraced passes pay one branch per call.
type tracer struct {
	on     bool
	run    int
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its handle, or -1 when
// tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span opened by begin; a -1 handle is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerStats aggregates the closed spans of one name.
type layerStats struct {
	count int
	total float64 // seconds of span duration
	self  float64 // seconds not covered by child spans
}

// aggregate sums duration and self time per span name. A span's self
// time is its duration minus the union of its children's intervals, so
// children running in parallel on several workers are not subtracted
// twice.
func (t *tracer) aggregate() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.count++
		st.total += float64(dur) / 1e9
		st.self += float64(dur-covered(t.spans, children[i], s.Start, s.End)) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of [lo, hi) the given spans cover.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		c := spans[id]
		a, b := max(c.Start, lo), min(c.End, hi)
		if c.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	first := true
	for _, v := range ivs {
		switch {
		case first:
			curA, curB, first = v.a, v.b, false
		case v.a > curB:
			sum += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if !first {
		sum += curB - curA
	}
	return sum
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
