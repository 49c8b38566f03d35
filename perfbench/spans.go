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

// now and since are the benchmark's only wall-clock reads. Measuring
// elapsed time is what the benchmark is for; no program output depends
// on it.
func now() time.Time {
	return time.Now() //qap:allow walltime -- benchmark timing, reported only as measurements
}

func since(t time.Time) time.Duration {
	return time.Since(t) //qap:allow walltime -- benchmark timing, reported only as measurements
}

// span is one timed call into a layer, recorded by the benchmark
// around the call (never inside the program). Start and End are
// offsets from the run's start on the monotonic clock.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Replay   int    `json:"replay"` // -1 when the span belongs to no replay
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the timed (untraced) run uses it.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int // stack of open span IDs
}

func newTracer(workload string) *tracer {
	return &tracer{t0: now(), workload: workload}
}

// begin opens a span under the innermost open span and returns its ID.
func (t *tracer) begin(layer, name string, replay int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Replay: replay, StartNS: int64(since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:n-1]
	t.spans[id].EndNS = int64(since(t.t0))
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part its child spans cover. Children
// of one span run one after another on the benchmark's goroutine, so
// their covered time is the sum of their durations.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Layer] += time.Duration(s.EndNS - s.StartNS - covered[i])
	}
	return self
}

// write stores the spans as JSON lines after a header line carrying
// the run's stamp.
func (t *tracer) write(path string, stamp any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTable renders self time per layer, largest first, for the
// layers that ran.
func layerTable(self map[string]time.Duration) string {
	var ran []string
	var total time.Duration
	for _, l := range layers {
		if self[l] > 0 {
			ran = append(ran, l)
			total += self[l]
		}
	}
	sort.SliceStable(ran, func(i, j int) bool { return self[ran[i]] > self[ran[j]] })
	out := "layer self time:\n"
	for _, l := range ran {
		out += fmt.Sprintf("  %-12s %10.4f s  %5.1f%%\n", l, self[l].Seconds(), 100*float64(self[l])/float64(total))
	}
	return out
}
