package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/keys"
)

// TestLookupLevelsPinned pins LookupLevels against a reference computed
// from the stored key set alone. A key's leaf sits at its unique-prefix
// depth L = 1 + the longest symbol prefix it shares with any other stored
// key, so a hit yields one level per symbol 0..L-1 — the two candidate
// bucket lines of H(syms[:i+1]), jump-compressed symbols included — then
// the record line. A miss that shares d symbols with the stored keys stops
// at symbol d (levels 0..d), unless a single stored key owns that prefix
// and its leaf is shallower, in which case the descent reaches that leaf
// and ends on its record line.
func TestLookupLevelsPinned(t *testing.T) {
	tr := New(Config{CapacityHint: 1 << 12, AutoResize: true})
	rng := rand.New(rand.NewSource(131))
	// Prefix families with long shared stems force jump nodes.
	stems := make([][]byte, 6)
	for i := range stems {
		stems[i] = make([]byte, 6+rng.Intn(10))
		rng.Read(stems[i])
	}
	gen := func() []byte {
		switch rng.Intn(3) {
		case 0:
			k := make([]byte, 1+rng.Intn(12))
			rng.Read(k)
			return k
		default:
			s := stems[rng.Intn(len(stems))]
			k := append([]byte(nil), s[:len(s)-rng.Intn(3)]...)
			tail := make([]byte, rng.Intn(4))
			rng.Read(tail)
			return append(k, tail...)
		}
	}
	var stored [][]byte
	seen := map[string]bool{}
	for len(stored) < 1500 {
		k := gen()
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		mustSet(t, tr, k, uint64(len(stored)))
		stored = append(stored, k)
	}
	if tr.Stats().JumpNodes == 0 {
		t.Fatal("key set built no jump nodes")
	}
	tbl := tr.tbl.Load()
	lines := func(syms []byte, n int) []uint64 {
		b1, b2, _ := tbl.bucketsOf(tbl.hashSyms(syms, n))
		return []uint64{b1 * bucketWords * 8 / 64, b2 * bucketWords * 8 / 64}
	}
	recordLine := func(k []byte) uint64 {
		syms := keys.AppendSymbols(nil, k)
		path, st := tr.searchPath(tbl, syms, nil)
		if st.outcome != soLeaf {
			t.Fatalf("key %x: searchPath outcome %d", k, st.outcome)
		}
		return 1<<40 + uint64(path[len(path)-1].ent.recIdx)*32/64
	}
	check := func(k []byte, want [][]uint64) {
		t.Helper()
		got := tr.LookupLevels(k)
		if len(got) != len(want) {
			t.Fatalf("key %x: %d levels, want %d", k, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("key %x level %d: %v, want %v", k, i, got[i], want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("key %x level %d: %v, want %v", k, i, got[i], want[i])
				}
			}
		}
	}

	for _, k := range stored[:400] {
		syms := keys.AppendSymbols(nil, k)
		d, _, _ := longestShared(stored, k)
		var want [][]uint64
		for i := 0; i <= d; i++ {
			want = append(want, lines(syms, i+1))
		}
		check(k, append(want, []uint64{recordLine(k)}))
	}

	misses, leafMisses := 0, 0
	for misses < 400 {
		k := gen()
		if seen[string(k)] {
			continue
		}
		misses++
		syms := keys.AppendSymbols(nil, k)
		d, owners, owner := longestShared(stored, k)
		if owners == 1 {
			if od, _, _ := longestShared(stored, owner); od+1 <= d {
				// The owner's leaf is shallower than the mismatch: the
				// descent ends there, on the owner's record.
				var want [][]uint64
				for i := 0; i <= od; i++ {
					want = append(want, lines(syms, i+1))
				}
				check(k, append(want, []uint64{recordLine(owner)}))
				leafMisses++
				continue
			}
		}
		var want [][]uint64
		for i := 0; i <= d; i++ {
			want = append(want, lines(syms, i+1))
		}
		check(k, want)
	}
	if leafMisses == 0 || leafMisses == misses {
		t.Fatalf("%d of %d misses reached a leaf; want both kinds", leafMisses, misses)
	}
}

// longestShared returns the longest symbol prefix k shares with a key of
// set other than k itself, how many keys share that much, and one of them.
func longestShared(set [][]byte, k []byte) (d, owners int, owner []byte) {
	d = -1
	for _, o := range set {
		if bytes.Equal(o, k) {
			continue
		}
		switch c := keys.CommonPrefixLen(k, o); {
		case c > d:
			d, owners, owner = c, 1, o
		case c == d:
			owners++
		}
	}
	return d, owners, owner
}
