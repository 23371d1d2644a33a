package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"sramco/internal/obs"
)

// layerOrder lists the span layers of a traced workload from the outside
// in: the benchmark's own spans around each operation, then the program's
// core, mc, cell and circuit spans. A layer's self time is the part of its
// spans' wall-time coverage that no span of a deeper layer covers.
var layerOrder = []string{"bench", "core", "mc", "cell", "circuit"}

// spanRec is one completed span, in nanoseconds since the tracer started.
type spanRec struct {
	name       string
	start, end int64
}

// tracer is the obs sink of a traced run: it keeps every span in memory
// (point events carry no duration and are dropped) and reduces them to
// per-layer metrics at the end.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// Emit implements obs.Sink.
func (t *tracer) Emit(ev obs.Event) {
	if ev.Kind != obs.KindSpan {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := ev.Time.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, spanRec{name: ev.Name, start: end - ev.Dur.Nanoseconds(), end: end})
}

// install makes t the process trace sink and returns the function that puts
// the previous sink back.
func (t *tracer) install() (restore func()) {
	prev := obs.SetSink(t)
	return func() { obs.SetSink(prev) }
}

// sumPrefix returns the summed duration of the spans whose name starts with
// prefix.
func (t *tracer) sumPrefix(prefix string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, s := range t.spans {
		if strings.HasPrefix(s.name, prefix) {
			total += s.end - s.start
		}
	}
	return time.Duration(total)
}

// intervals returns the spans' intervals grouped by layer (the name up to
// its first dot), and those of the core.search and core.search.chunk spans.
func (t *tracer) intervals() (byLayer map[string][]interval, searches, chunks []interval) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byLayer = map[string][]interval{}
	for _, s := range t.spans {
		l, _, _ := strings.Cut(s.name, ".")
		iv := interval{s.start, s.end}
		byLayer[l] = append(byLayer[l], iv)
		switch s.name {
		case "core.search", "core.search.pareto":
			searches = append(searches, iv)
		case "core.search.chunk":
			chunks = append(chunks, iv)
		}
	}
	return byLayer, searches, chunks
}

// putChunkShare adds core.chunk_span_share, the share of core.search wall
// time covered by core.search.chunk spans, unless layer already has it.
func (t *tracer) putChunkShare(layer map[string]float64) {
	_, searches, chunks := t.intervals()
	if s := merge(searches); len(s) > 0 {
		putNew(layer, "core.chunk_span_share", float64(coverage(clip(chunks, s)))/float64(coverage(s)))
	}
}

// putSelfShares adds trace.self_frac.<layer>: each layer's self time as a
// share of the benchmark spans' coverage. A workload leaves the layers it
// does not reach at 0, so these are logged, not reported as metrics.
func (t *tracer) putSelfShares(layer map[string]float64) {
	byLayer, _, _ := t.intervals()
	// Only time inside the benchmark's operation spans is attributed.
	bench := merge(byLayer["bench"])
	total := coverage(bench)
	if total == 0 {
		return
	}
	var deeper []interval
	for i := len(layerOrder) - 1; i >= 0; i-- {
		l := layerOrder[i]
		own := clip(byLayer[l], bench)
		self := coverage(append(append([]interval(nil), own...), deeper...)) - coverage(deeper)
		putNew(layer, "trace.self_frac."+l, float64(self)/float64(total))
		deeper = append(deeper, own...)
	}
}

type interval struct{ lo, hi int64 }

// merge returns the union of the intervals as sorted disjoint intervals.
func merge(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := []interval{s[0]}
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.lo > last.hi {
			out = append(out, x)
		} else if x.hi > last.hi {
			last.hi = x.hi
		}
	}
	return out
}

// coverage returns the length of the union of the intervals.
func coverage(iv []interval) int64 {
	var total int64
	for _, x := range merge(iv) {
		total += x.hi - x.lo
	}
	return total
}

// clip returns the parts of the intervals inside the sorted disjoint set b.
func clip(iv []interval, b []interval) []interval {
	var out []interval
	for _, x := range iv {
		for j := sort.Search(len(b), func(j int) bool { return b[j].hi > x.lo }); j < len(b) && b[j].lo < x.hi; j++ {
			lo, hi := max(x.lo, b[j].lo), min(x.hi, b[j].hi)
			if lo < hi {
				out = append(out, interval{lo, hi})
			}
		}
	}
	return out
}
