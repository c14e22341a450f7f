package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program,
// or one phase of a served request reconstructed from its event stream.
// Parent is the id of the span that caused it (0 for a root); Req groups
// the spans of one flow, table or HTTP request.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// request allocates a request id.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req int, start, end float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// open starts a span whose id is known before its children are recorded;
// close fills in its end.
func (t *tracer) open(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	s := t.now()
	return t.add(name, parent, req, s, s)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	e := t.now()
	t.mu.Lock()
	t.spans[id-1].End = e
	t.mu.Unlock()
}

// layerTime is the busy and self time of every span of one name.
type layerTime struct {
	Busy, Self float64
	Count      int
}

// layerTimes sums span durations by name. A span's self time is its
// duration minus the part of it covered by its children (the union of
// their intervals, clipped to the parent).
func (t *tracer) layerTimes() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Busy += d
		lt.Self += d - covered(kids[s.ID], s.Start, s.End)
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps every span as one JSON document under the run's stamp.
func (t *tracer) write(path string, stamp map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Stamp map[string]any `json:"stamp"`
		Spans []span         `json:"spans"`
	}{stamp, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
