package core

import (
	"testing"

	"repro/internal/dataset"
)

// firstResizeLoad loads ks into an AutoResize trie sized by hint and
// returns the table's load factor at its first doubling: the slots in use
// just after the resize (the old table's nodes plus the one key that
// forced it) over the old table's slots. It fails the test if the table
// never doubles.
func firstResizeLoad(t *testing.T, ks [][]byte, hint int) float64 {
	t.Helper()
	tr := New(Config{CapacityHint: hint, AutoResize: true})
	buckets := tr.tbl.Load().buckets
	for i, k := range ks {
		if _, err := tr.Set(k, uint64(i)); err != nil {
			t.Fatalf("Set #%d: %v", i, err)
		}
		if tr.tbl.Load().buckets != buckets {
			return float64(tr.Stats().SlotsUsed) / float64(buckets*entriesPerBucket)
		}
	}
	t.Fatalf("%d keys never doubled a table sized for %d", len(ks), hint)
	return 0
}

// TestFirstResizeLoadFactor checks that the peelable hash spreads node
// names over the whole table: a table sized for the paper's ~0.85 load
// factor must not double before it is at least 75% full. A step that only
// rotates bits after the XOR leaves whole bit windows of a depth-d name's
// hash fixed, so nodes crowd into a fraction of the buckets and the
// eviction search gives up at load factor 0.53-0.66.
func TestFirstResizeLoadFactor(t *testing.T) {
	const hint = 1 << 16
	for _, seed := range []int64{1, 2, 3} {
		// At load factor 0.85 the sized table holds ~1.4 hints of rand-8
		// keys (~1.25 nodes/key); two hints make sure the load doubles it.
		ks := dataset.Generate(dataset.Rand8, 2*hint, seed)
		if lf := firstResizeLoad(t, ks, hint); lf < 0.75 {
			t.Errorf("seed %d: first AutoResize at load factor %.3f, want >= 0.75", seed, lf)
		} else {
			t.Logf("seed %d: first AutoResize at load factor %.3f", seed, lf)
		}
	}
}

// TestHashStepBijective checks peelability exhaustively on small tables:
// for every symbol, step permutes the whole hash domain, so h(x) is
// determined by h(x·c) and c. Both an even and an odd log2(S·t) are
// covered, since the XOR-shift amount is ⌊k/2⌋.
func TestHashStepBijective(t *testing.T) {
	for _, buckets := range []uint64{64, 128} {
		hs := newHasher(buckets, 9)
		domain := buckets * tagCount
		seen := make([]bool, domain)
		for c := 0; c < hashR; c++ {
			clear(seen)
			for h := uint64(0); h < domain; h++ {
				v := hs.step(h, byte(c))
				if v >= domain || seen[v] {
					t.Fatalf("S=%d symbol %d: step(%d) = %d repeats or leaves [0, %d)", buckets, c, h, v, domain)
				}
				seen[v] = true
			}
		}
	}
}
