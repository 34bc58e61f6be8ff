package main

import (
	"math/bits"
	"slices"
	"time"
)

// splitmix64 is the finalizer of the SplitMix64 generator: a bijection on
// uint64, so distinct inputs give distinct outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// stream is a seeded, allocation-free source of uniform choices; one per
// load goroutine, so the op stream of goroutine g depends only on the seed
// and g.
type stream struct{ state uint64 }

func newStream(seed int64, g int) *stream {
	return &stream{state: splitmix64(uint64(seed)) ^ splitmix64(uint64(g)+0x51ed)}
}

func (s *stream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return splitmix64(s.state)
}

// index returns a uniform index in [0, n).
func (s *stream) index(n int) int {
	hi, _ := bits.Mul64(s.next(), uint64(n))
	return int(hi)
}

// seededValues returns the value stored for each preloaded key: a function
// of the seed and the key's position, so a reply can be checked without
// trusting the system under test.
func seededValues(seed int64, n int) []uint64 {
	vals := make([]uint64, n)
	base := splitmix64(uint64(seed) ^ 0xa11ce)
	for i := range vals {
		vals[i] = splitmix64(base + uint64(i))
	}
	return vals
}

// sample is one request unit: a MultiGet call or a pipeline round trip.
type sample struct {
	lat int64 // ns
	ok  int32 // operations in the unit that were correct
}

// counts are one load goroutine's operation tallies.
type counts struct {
	attempted, failed int64
	notes             []string
}

func (c *counts) fail(n int64, note string) {
	c.failed += n
	if len(c.notes) < maxFailureNotes {
		c.notes = append(c.notes, note)
	}
}

// windowStats summarizes a measured window. Latencies are µs per request
// unit.
type windowStats struct {
	kops    float64 // correct operations per second / 1000
	p50     float64
	p90     float64
	p99     float64
	p999    float64
	samples int // request units measured
}

// summarize reports the whole window: correct operations over its length,
// and latency percentiles over every request unit in it.
func summarize(samples []sample, window time.Duration) windowStats {
	ws := windowStats{samples: len(samples)}
	if len(samples) == 0 || window <= 0 {
		return ws
	}
	all := make([]int64, 0, len(samples))
	var total int64
	for _, s := range samples {
		all = append(all, s.lat)
		total += int64(s.ok)
	}
	slices.Sort(all)
	ws.kops = float64(total) / window.Seconds() / 1e3
	ws.p50, ws.p90 = quantile(all, 0.50)/1e3, quantile(all, 0.90)/1e3
	ws.p99, ws.p999 = quantile(all, 0.99)/1e3, quantile(all, 0.999)/1e3
	return ws
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration returns the median of ds in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
