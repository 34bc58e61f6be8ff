package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request share the root span's
// ID as their Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n"` // work units: keys, commands or replies
}

// maxSpansPerBuf bounds a traced run's memory; spans past it are counted
// as dropped.
const maxSpansPerBuf = 1 << 19

// tracer keeps spans in memory, one buffer per goroutine, until write.
// A nil *tracer records nothing, so untraced runs pay one nil check; nor
// does one that is off, which its owner sets only while no recording
// goroutine runs.
type tracer struct {
	epoch  time.Time
	off    bool
	nextID atomic.Uint64
	mu     sync.Mutex
	bufs   []*spanBuf
}

type spanBuf struct {
	t       *tracer
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new span buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t, spans: make([]span, 0, 1<<12)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// id allocates a span ID (0 when untraced).
func (b *spanBuf) id() uint64 {
	if b == nil || b.t.off {
		return 0
	}
	return b.t.nextID.Add(1)
}

// add records a finished span.
func (b *spanBuf) add(name string, id, parent uint64, start, end time.Time, n int) {
	if b == nil || b.t.off {
		return
	}
	if len(b.spans) >= maxSpansPerBuf {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(b.t.epoch).Nanoseconds(), End: end.Sub(b.t.epoch).Nanoseconds(), N: n})
}

// all returns every recorded span. Call only after the recording
// goroutines have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

func (t *tracer) dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, b := range t.bufs {
		n += b.dropped
	}
	return n
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count   int
	units   int
	perUnit []float64 // ns per work unit, one per span
	durs    []float64 // ns, one per span
	selfNs  int64     // duration not covered by child spans
}

// aggregate groups spans by name and computes self time: a span's
// duration minus that of its children.
func aggregate(spans []span) map[string]*spanStats {
	childNs := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.units += s.N
		st.durs = append(st.durs, float64(d))
		if s.N > 0 {
			st.perUnit = append(st.perUnit, float64(d)/float64(s.N))
		}
		st.selfNs += d - childNs[s.ID]
	}
	return out
}

// medianPerUnit is the median over spans named name of ns per work unit.
func medianPerUnit(agg map[string]*spanStats, name string) (float64, int) {
	st := agg[name]
	if st == nil {
		return 0, 0
	}
	return median(st.perUnit), st.count
}

// medianDur is the median duration in ns of the spans named name.
func medianDur(agg map[string]*spanStats, name string) (float64, int) {
	st := agg[name]
	if st == nil {
		return 0, 0
	}
	return median(st.durs), st.count
}

func printSpanTable(out io.Writer, agg map[string]*spanStats) {
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintln(out, "spans (name, count, units, median ns/unit, total self ms):")
	for _, n := range names {
		st := agg[n]
		fmt.Fprintf(out, "  %-28s %9d %11d %12.1f %12.2f\n", n, st.count, st.units, median(st.perUnit), float64(st.selfNs)/1e6)
	}
}
