package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Name is "<layer>.<function>"; spans named "bench.*" are the
// benchmark's own operations (the roots). Run is the operation index the
// span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the untraced and traced runs
// execute the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun tags the spans opened from now on with an operation index.
func (t *tracer) setRun(run int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs f inside a span.
func (t *tracer) call(name string, parent int, f func()) {
	id := t.start(name, parent)
	f()
	t.end(id)
}

// layerOf is the module a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// breakdown is the trace reduced to per-layer figures.
type breakdown struct {
	// self is each layer's self time in seconds: its spans' durations
	// minus the part of each interval covered by child spans.
	self map[string]float64
	// byName sums span durations per span name, in seconds.
	byName map[string]float64
	// rootWall and unattributed are the root spans' total duration and
	// the part of it no child span covers, in seconds.
	rootWall, unattributed float64
}

// analyze reduces the spans whose Run satisfies keep. Only "bench.op"
// roots count toward unattributed time; set-up roots are excluded.
func (t *tracer) analyze(keep func(run int) bool) breakdown {
	b := breakdown{self: map[string]float64{}, byName: map[string]float64{}}
	if t == nil {
		return b
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for _, s := range t.spans {
		if s.End < 0 || !keep(s.Run) {
			continue
		}
		dur := float64(s.End-s.Start) / 1e9
		var iv [][2]int64
		for _, ci := range children[s.ID] {
			c := t.spans[ci]
			if c.End < 0 {
				continue
			}
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		self := dur - float64(unionLen(iv))/1e9
		b.byName[s.Name] += dur
		b.self[layerOf(s.Name)] += self
		if s.Parent == 0 && s.Name == "bench.op" {
			b.rootWall += dur
			b.unattributed += self
		}
	}
	return b
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
