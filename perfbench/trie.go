package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	cuckootrie "repro"
	"repro/internal/dataset"
	"repro/internal/index"
)

const (
	readBatch = 64   // keys per MultiGet, commands per ZSCORE pipeline
	loadChunk = 4096 // keys per MultiSet during set-up
)

// trieKeyCount sizes trie-read-dram so that the index is at least 1.5x the
// L3 cache, counting 116 index bytes per rand-8 key (less than the loaded
// table costs), rounded up to a multiple of 64k keys. Without an
// L3 reading it loads 4M.
func trieKeyCount(o options, m machine) int {
	if o.trieKeys > 0 {
		return o.trieKeys
	}
	if m.l3Bytes == 0 {
		return 4_000_000
	}
	n := int(1.5 * float64(m.l3Bytes) / 116)
	n = (n + 1<<16 - 1) &^ (1<<16 - 1)
	return min(max(n, 1<<20), 16<<20)
}

// newTrie makes the index every part of the benchmark uses, with the
// capacity hint for the n keys it is built for, as the repository's other
// loaders give it. A table that fills before its keys are in is doubled
// by AutoResize during the load, which set-up time and footprint then show.
func newTrie(n int) *cuckootrie.Trie {
	return cuckootrie.New(cuckootrie.Config{CapacityHint: n, AutoResize: true})
}

func trieFactory(n int) index.Index { return newTrie(n) }

// loadTrie inserts every key with one goroutine in MultiSet chunks, so the
// table layout, and with it the footprint, depends only on the seed.
func loadTrie(t *cuckootrie.Trie, keys [][]byte, vals []uint64, sb *spanBuf) error {
	errs := make([]error, loadChunk)
	for off := 0; off < len(keys); off += loadChunk {
		end := min(off+loadChunk, len(keys))
		start := time.Now()
		added := t.MultiSet(keys[off:end], vals[off:end], errs[:end-off])
		sb.add("core.MultiSet", sb.id(), 0, start, time.Now(), end-off)
		for _, err := range errs[:end-off] {
			if err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
		if added != end-off {
			return fmt.Errorf("load: %d of %d keys newly added (duplicate keys)", added, end-off)
		}
	}
	return nil
}

// trieUnits returns one closed-loop worker per CPU, each issuing MultiGet
// batches of uniformly chosen keys and checking every value.
func trieUnits(t *cuckootrie.Trie, keys [][]byte, vals []uint64, seed int64, tr *tracer, cnts []*counts) []unitFunc {
	units := make([]unitFunc, len(cnts))
	for g := range units {
		s := newStream(seed, g)
		sb := tr.buf()
		c := cnts[g]
		idx := make([]int, readBatch)
		ks := make([][]byte, readBatch)
		v := make([]uint64, readBatch)
		f := make([]bool, readBatch)
		units[g] = func() (int, bool) {
			for j := range idx {
				idx[j] = s.index(len(keys))
				ks[j] = keys[idx[j]]
			}
			start := time.Now()
			t.MultiGet(ks, v, f)
			sb.add("e2e.MultiGet", sb.id(), 0, start, time.Now(), readBatch)
			ok := 0
			for j, i := range idx {
				switch {
				case !f[j]:
					c.fail(1, fmt.Sprintf("MultiGet: key %x missing", keys[i]))
				case v[j] != vals[i]:
					c.fail(1, fmt.Sprintf("MultiGet: key %x: got %d, want %d", keys[i], v[j], vals[i]))
				default:
					ok++
				}
			}
			c.attempted += readBatch
			return ok, false
		}
	}
	return units
}

func newCounts(n int) []*counts {
	cs := make([]*counts, n)
	for i := range cs {
		cs[i] = &counts{}
	}
	return cs
}

func runTrieReadDRAM(o options, m machine, out io.Writer) (*report, error) {
	n := trieKeyCount(o, m)
	keys := dataset.Generate(dataset.Rand8, n, o.seed)
	vals := seededValues(o.seed, n)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	loadBuf := tr.buf()
	// Key generation's garbage is collected before set-up is timed.
	runtime.GC()
	start := time.Now()
	t := newTrie(n)
	if err := loadTrie(t, keys, vals, loadBuf); err != nil {
		return nil, err
	}
	setup := time.Since(start)
	runtime.GC()
	overhead, loadFactor := t.MemoryOverheadBytes(), t.Stats().LoadFactor
	fmt.Fprintf(out, "residency: %d rand-8 keys, %s\n", t.Len(), m.residency(overhead))

	cnts := newCounts(runtime.GOMAXPROCS(0))
	units := trieUnits(t, keys, vals, o.seed, tr, cnts)
	var goLayer []metric
	if o.trace {
		goLayer = goLayerWindow(units, tr, o)
	}
	samples, _, _ := closedLoop(units, o.warmup(), o.window(), true)
	rep := &report{}
	for _, c := range cnts {
		rep.merge(c)
	}
	e2e, latency := windowMetrics(samples, o.window())
	perKey := float64(overhead) / float64(t.Len())
	e2e = append(e2e,
		metric{name: "setup_s", value: setup.Seconds(), unit: "s", samples: 1, note: fmt.Sprintf("%d keys, one loader", n)},
		metric{name: "mem_bytes_per_key", value: perKey, unit: "B/key", samples: t.Len(),
			note: fmt.Sprintf("load factor %.3f", loadFactor)})
	if !o.trace {
		rep.e2e, rep.info = e2e, latency
		return rep, nil
	}
	rep.info = append(e2e, latency...)
	l := &ladder{o: o, out: out, tr: tr, rep: rep, keys: keys, vals: vals,
		readDepth: readBatch, goLayer: goLayer}
	l.coreRung(t, loadBuf)
	// The DRAM-sized trie is dead from here on; collect it before the
	// upper rungs build their own indexes over the ladder keys.
	runtime.GC()
	if err := l.upperRungs(nil); err != nil {
		return nil, err
	}
	return rep, l.finish()
}
