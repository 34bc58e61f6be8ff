package core

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keys"
)

// TestMultiGetBasic cross-checks MultiGet against Get on a loaded trie with
// hits, misses, and duplicate keys in one batch.
func TestMultiGetBasic(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 14, AutoResize: true})
	rng := rand.New(rand.NewSource(51))
	n := 20000
	for i := 0; i < n; i++ {
		mustSet(t, tr, keys.Uint64Key(uint64(i)*3), uint64(i))
	}
	for _, bs := range []int{1, 2, 7, 8, 64, 100, 500} {
		batch := make([][]byte, bs)
		for j := range batch {
			batch[j] = keys.Uint64Key(uint64(rng.Intn(3 * n))) // ~1/3 hit rate
		}
		if bs > 1 {
			batch[bs-1] = batch[0]
		}
		vals := make([]uint64, bs)
		found := make([]bool, bs)
		tr.MultiGet(batch, vals, found)
		for j, k := range batch {
			wv, wok := tr.Get(k)
			if found[j] != wok || (wok && vals[j] != wv) {
				t.Fatalf("batch %d: MultiGet[%d] = %d,%v; Get = %d,%v",
					bs, j, vals[j], found[j], wv, wok)
			}
		}
	}
}

// TestMultiGetVariableKeys exercises the staged hash ladders across keys of
// very different lengths (different descent depths and jump nodes) in the
// same batch.
func TestMultiGetVariableKeys(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12, AutoResize: true})
	rng := rand.New(rand.NewSource(52))
	var stored [][]byte
	for i := 0; i < 5000; i++ {
		k := make([]byte, 1+rng.Intn(40))
		rng.Read(k)
		if _, err := tr.Set(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, k)
	}
	// A family under one long stem: its shared path is a chain of jump
	// nodes, which the derived misses below diverge inside of.
	stem := make([]byte, 16)
	rng.Read(stem)
	for i := 0; i < 16; i++ {
		k := append(append([]byte(nil), stem...), byte(i*16))
		mustSet(t, tr, k, uint64(len(stored)))
		stored = append(stored, k)
	}
	batch := make([][]byte, 128)
	for j := range batch {
		if j%4 == 0 {
			k := make([]byte, 1+rng.Intn(40))
			rng.Read(k)
			batch[j] = k
		} else {
			batch[j] = stored[rng.Intn(len(stored))]
		}
	}
	misses := missesByOutcome(t, tr, stored, rng)
	for _, m := range misses {
		batch = append(batch, m...)
	}
	vals := make([]uint64, len(batch))
	found := make([]bool, len(batch))
	tr.MultiGet(batch, vals, found)
	for j, k := range batch {
		wv, wok := tr.Get(k)
		if found[j] != wok || (wok && vals[j] != wv) {
			t.Fatalf("MultiGet[%d] (len %d) = %d,%v; Get = %d,%v",
				j, len(k), vals[j], found[j], wv, wok)
		}
		if j >= 128 && wok {
			t.Fatalf("miss key %x found", k)
		}
	}
}

// missesByOutcome derives absent keys from stored ones (extended,
// truncated, last or middle byte flipped) and sorts them by where their descent ends:
// a regular node without the next symbol's bit, a jump node whose stored
// symbol differs, or a leaf whose stored key differs under a shared prefix.
// It fails the test unless every outcome has at least one key.
func missesByOutcome(t *testing.T, tr *Trie, stored [][]byte, rng *rand.Rand) map[string][][]byte {
	t.Helper()
	present := map[string]bool{}
	for _, k := range stored {
		present[string(k)] = true
	}
	out := map[string][][]byte{}
	tbl := tr.tbl.Load()
	for _, k := range stored {
		cands := [][]byte{
			append(append([]byte(nil), k...), byte(rng.Intn(256))),
			append([]byte(nil), k[:len(k)-1]...),
			append(append([]byte(nil), k[:len(k)-1]...), k[len(k)-1]^1),
			append(append(append([]byte(nil), k[:len(k)/2]...), k[len(k)/2]^0x10), k[len(k)/2+1:]...),
		}
		for _, c := range cands {
			if present[string(c)] {
				continue
			}
			path, st := tr.searchPath(tbl, keys.AppendSymbols(nil, c), nil)
			var kind string
			switch st.outcome {
			case soMissing:
				kind = "bitmap miss"
			case soJumpMismatch:
				kind = "jump mismatch"
			case soLeaf:
				if bytes.Equal(tr.recs.key(path[len(path)-1].ent.recIdx), c) {
					t.Fatalf("absent key %x reached its own leaf", c)
				}
				kind = "leaf key mismatch"
			default:
				t.Fatalf("key %x: outcome %d on a quiescent trie", c, st.outcome)
			}
			if len(out[kind]) < 8 {
				out[kind] = append(out[kind], c)
			}
		}
	}
	for _, kind := range []string{"bitmap miss", "jump mismatch", "leaf key mismatch"} {
		if len(out[kind]) == 0 {
			t.Fatalf("no derived key ends at a %s", kind)
		}
	}
	return out
}

// TestHotPathAllocFree pins the lookup hot path at zero allocations: Get on
// an 8-byte hit and on a miss, and a steady-state 64-key MultiGet (its
// scratch is pooled, so only the first batch allocates).
func TestHotPathAllocFree(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 14})
	const n = 10000
	for i := 0; i < n; i++ {
		mustSet(t, tr, keys.Uint64Key(uint64(i)*2), uint64(i))
	}
	hit, miss := keys.Uint64Key(4242), keys.Uint64Key(4243)
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := tr.Get(hit); !ok {
			t.Fatal("hit not found")
		}
	}); a != 0 {
		t.Errorf("Get hit: %v allocs/op", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := tr.Get(miss); ok {
			t.Fatal("miss found")
		}
	}); a != 0 {
		t.Errorf("Get miss: %v allocs/op", a)
	}
	if raceDetectorEnabled {
		return // the batch scratch is pooled, and -race drops pool Puts
	}
	batch := make([][]byte, 64)
	for j := range batch {
		batch[j] = keys.Uint64Key(uint64(j) * 97)
	}
	vals := make([]uint64, len(batch))
	found := make([]bool, len(batch))
	if a := testing.AllocsPerRun(100, func() { tr.MultiGet(batch, vals, found) }); a != 0 {
		t.Errorf("MultiGet(64): %v allocs/op", a)
	}
}

// TestMultiSetAdded verifies the batched write path's added accounting.
func TestMultiSetAdded(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 10, AutoResize: true})
	ks := make([][]byte, 100)
	vals := make([]uint64, 100)
	for i := range ks {
		ks[i] = keys.Uint64Key(uint64(i))
		vals[i] = uint64(i)
	}
	errs := make([]error, len(ks))
	if added := tr.MultiSet(ks, vals, errs); added != len(ks) {
		t.Fatalf("fresh MultiSet added %d", added)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("errs[%d] = %v", i, err)
		}
	}
	if added := tr.MultiSet(ks, vals, nil); added != 0 {
		t.Fatalf("repeat MultiSet added %d", added)
	}
	if tr.Len() != len(ks) {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestConcurrentMultiGet runs batched readers against concurrent writers:
// stable keys must always be found with their original values, regardless of
// the churn triggering conflict fallbacks or table resizes mid-batch.
func TestConcurrentMultiGet(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12, AutoResize: true})
	const stable = 2000
	for i := 0; i < stable; i++ {
		mustSet(t, tr, keys.Uint64Key(uint64(i)*2+1), uint64(i))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	writers := 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for !stop.Load() {
				v := uint64(w+1)<<50 | uint64(rng.Int63n(1<<30))*2
				if _, err := tr.Set(keys.Uint64Key(v), v); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
			}
		}(w)
	}

	readers := 2
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + r)))
			const bs = 32
			batch := make([][]byte, bs)
			idx := make([]int, bs)
			vals := make([]uint64, bs)
			found := make([]bool, bs)
			for !stop.Load() {
				for j := 0; j < bs; j++ {
					idx[j] = rng.Intn(stable)
					batch[j] = keys.Uint64Key(uint64(idx[j])*2 + 1)
				}
				tr.MultiGet(batch, vals, found)
				for j := 0; j < bs; j++ {
					if !found[j] || vals[j] != uint64(idx[j]) {
						errs <- errFmt("stable key %d: MultiGet %d,%v",
							idx[j], vals[j], found[j])
						return
					}
				}
			}
		}(r)
	}

	timeout := 2 * time.Second
	if testing.Short() {
		timeout = 300 * time.Millisecond
	}
	select {
	case err := <-errs:
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(timeout):
		stop.Store(true)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
