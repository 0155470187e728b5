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

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the tracer's base.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // the op the span belongs to, -1 for set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: begin returns id -1, which end ignores. Untraced ops pass nil.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	sp   []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), sp: make([]span, 0, 1<<16)} }

// orNil returns t for a traced op and nil for an untraced one.
func (t *tracer) orNil(traced bool) *tracer {
	if traced {
		return t
	}
	return nil
}

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sp = append(t.sp, span{ID: len(t.sp), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.sp) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.sp[id].End = now
	t.mu.Unlock()
}

// add records an already-finished span, e.g. one reconstructed from the
// library's own telemetry.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sp = append(t.sp, span{ID: len(t.sp), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
	t.mu.Unlock()
}

// layerTime is one span name's totals.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	SelfMs  float64 `json:"self_ms_total"`
	P50Ms   float64 `json:"duration_ms_p50"`
	SelfP50 float64 `json:"self_ms_p50"`
}

// selfTimes computes, for every span name, the median duration and the
// self time: a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.sp {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	dur := make(map[string][]float64)
	self := make(map[string][]float64)
	for _, s := range t.sp {
		if s.End < 0 {
			continue
		}
		covered := coveredNs(s, children[s.ID])
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	out := make(map[string]layerTime, len(dur))
	for name, d := range dur {
		total := 0.0
		for _, v := range self[name] {
			total += v
		}
		out[name] = layerTime{Name: name, Count: len(d), SelfMs: total, P50Ms: median(d), SelfP50: median(self[name])}
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	return total + curHi - curLo
}

// write saves the spans as JSON lines followed by one summary line per
// span name, and prints the self-time table.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.sp {
		enc.Encode(s)
	}
	t.mu.Unlock()
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		enc.Encode(struct {
			Summary layerTime `json:"summary"`
		}{st[n]})
		fmt.Printf("  span %-22s n=%-6d p50 %.4g ms, self p50 %.4g ms, self total %.1f ms\n",
			n, st[n].Count, st[n].P50Ms, st[n].SelfP50, st[n].SelfMs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
