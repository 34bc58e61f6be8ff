package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

// Property: entry encoding round-trips exactly for every field combination.
func TestEntryEncodeRoundTrip(t *testing.T) {
	f := func(kind, tag, lastSym, color, parentColor, jumpLen, locColor, childColor uint8,
		primary, dirty, hasNext, hasLoc, parentIsJump bool, recIdx uint32, w1, locHash uint64) bool {
		e := entry{
			kind:         kind & 3,
			tag:          tag & 0xf,
			primary:      primary,
			lastSym:      lastSym & 0x3f,
			color:        color & 7,
			parentColor:  parentColor & 7,
			dirty:        dirty,
			jumpLen:      jumpLen & 0xf,
			locColor:     locColor & 7,
			childColor:   childColor & 7,
			hasNext:      hasNext,
			hasLoc:       hasLoc,
			parentIsJump: parentIsJump,
			recIdx:       recIdx & 0x7fffffff,
			w1:           w1,
			locHash:      locHash,
		}
		got := decodeEntry(e.encode())
		return got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the word-0 patterns the table matches with — by parent, by
// color and by locator, specialised to a bucket's tag and primacy — accept
// an encoded entry exactly when its decoded fields match, including the
// rule that a jump node's child (parentIsJump) never matches by parent.
// Each probe field copies the entry's value three times in four, so full
// matches and single-field near misses are both common.
func TestEntryMatchPatterns(t *testing.T) {
	f := func(kind, tag, lastSym, color, parentColor uint8, primary, parentIsJump bool,
		w0Rest uint64, pick uint16, pTag, pSym, pColor uint8, pPrimary bool) bool {
		e := decodeEntry(w0Rest, 0, 0) // random values in every other field
		e.kind, e.tag, e.primary = kind&3, tag&0xf, primary
		e.lastSym, e.color, e.parentColor = lastSym&0x3f, color&7, parentColor&7
		e.parentIsJump = parentIsJump
		w0, _, _ := e.encode()
		keep := func(bit uint) bool { return pick>>(2*bit)&3 != 0 }
		qTag, qPrimary, qSym, qColor := pTag&0xf, pPrimary, pSym&0x3f, pColor&7
		if keep(0) {
			qTag = e.tag
		}
		if keep(1) {
			qPrimary = e.primary
		}
		if keep(2) {
			qSym = e.lastSym
		}
		if keep(3) {
			qColor = e.color
			if pick>>14&1 != 0 {
				qColor = e.parentColor
			}
		}
		same := e.kind != kindEmpty && e.tag == qTag && e.primary == qPrimary
		return byParent(qSym, qColor).in(qTag, qPrimary).matches(w0) ==
			(same && !e.parentIsJump && e.lastSym == qSym && e.parentColor == qColor) &&
			byColor(qSym, qColor).in(qTag, qPrimary).matches(w0) ==
				(same && e.lastSym == qSym && e.color == qColor) &&
			byLocator(locator{color: qColor}).in(qTag, qPrimary).matches(w0) ==
				(same && e.color == qColor)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the hash function is peelable — h(x) is recoverable from
// (h(x·c), c) — which is what makes key elimination sound (§4.2). We verify
// the existence claim directly: step is injective in h for each fixed c.
func TestHashPeelable(t *testing.T) {
	hs := newHasher(1<<12, 42)
	domain := hs.buckets * tagCount
	f := func(h1, h2 uint64, c uint8) bool {
		a, b := h1%domain, h2%domain
		sym := c % 33
		if a == b {
			return true
		}
		// Distinct parent hashes must yield distinct child hashes.
		return hs.step(a, sym) != hs.step(b, sym)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// Property: step stays within the hash domain.
func TestHashDomain(t *testing.T) {
	hs := newHasher(1<<10, 7)
	domain := hs.buckets * tagCount
	f := func(h uint64, c uint8) bool {
		return hs.step(h%domain, c%33) < domain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// Property: hashOf inverts bucketsOf — an entry's full hash is recoverable
// from (bucket, tag, primary), which is what makes relocations possible
// without stored keys.
func TestHashOfInvertsBuckets(t *testing.T) {
	hs := newHasher(1<<12, 13)
	domain := hs.buckets * tagCount
	f := func(h uint64) bool {
		hh := h % domain
		b1, b2, tag := hs.bucketsOf(hh)
		return hs.hashOf(b1, tag, true) == hh && hs.hashOf(b2, tag, false) == hh &&
			hs.altBucket(b1, tag, true) == b2 && hs.altBucket(b2, tag, false) == b1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random operation sequence leaves the trie equivalent to a
// reference model and structurally sound.
func TestRandomOpSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(Config{CapacityHint: 64, AutoResize: true})
		model := map[string]uint64{}
		var live []string
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // insert/update
				k := make([]byte, rng.Intn(10))
				rng.Read(k)
				v := rng.Uint64()
				if _, err := tr.Set(k, v); err != nil {
					return false
				}
				if _, ok := model[string(k)]; !ok {
					live = append(live, string(k))
				}
				model[string(k)] = v
			case 5, 6: // delete
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				k := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !tr.Delete([]byte(k)) {
					return false
				}
				delete(model, k)
			case 7: // lookup
				k := make([]byte, rng.Intn(10))
				rng.Read(k)
				v, ok := tr.Get(k)
				mv, mok := model[string(k)]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 8: // predecessor against the model
				k := make([]byte, rng.Intn(6))
				rng.Read(k)
				pk, _, ok := tr.Predecessor(k)
				var want string
				found := false
				for mk := range model {
					if mk <= string(k) && (!found || mk > want) {
						want, found = mk, true
					}
				}
				if ok != found || (ok && string(pk) != want) {
					return false
				}
			case 9: // full-order check
				var ks []string
				for mk := range model {
					ks = append(ks, mk)
				}
				sort.Strings(ks)
				it, err := tr.Seek(nil)
				if err != nil {
					return false
				}
				for _, want := range ks {
					if !it.Valid() || string(it.Key()) != want {
						return false
					}
					it.Next()
				}
				if it.Valid() {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: keys that differ only in their tail bytes (worst case for the
// symbol codec's padding) are stored and ordered correctly.
func TestTailByteKeys(t *testing.T) {
	f := func(base []byte, a, b uint8) bool {
		if len(base) > 20 {
			base = base[:20]
		}
		if a == b {
			return true
		}
		tr := New(Config{CapacityHint: 16, AutoResize: true})
		k1 := append(append([]byte(nil), base...), a)
		k2 := append(append([]byte(nil), base...), b)
		tr.Set(k1, 1)
		tr.Set(k2, 2)
		tr.Set(base, 3)
		if v, ok := tr.Get(k1); !ok || v != 1 {
			return false
		}
		if v, ok := tr.Get(k2); !ok || v != 2 {
			return false
		}
		minK, _, ok := tr.Min()
		if !ok || !bytes.Equal(minK, base) {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the symbol codec and trie agree on key ordering for arbitrary
// key pairs routed through a real trie.
func TestTrieOrderMatchesBytes(t *testing.T) {
	f := func(a, b, c []byte) bool {
		ks := [][]byte{a, b, c}
		tr := New(Config{CapacityHint: 16, AutoResize: true})
		uniq := map[string]bool{}
		for _, k := range ks {
			if len(k) > 32 {
				k = k[:32]
			}
			if _, err := tr.Set(k, 1); err != nil {
				return false
			}
			uniq[string(k)] = true
		}
		var want []string
		for k := range uniq {
			want = append(want, k)
		}
		sort.Strings(want)
		it, err := tr.Seek(nil)
		if err != nil {
			return false
		}
		for _, w := range want {
			if !it.Valid() || string(it.Key()) != w {
				return false
			}
			it.Next()
		}
		return !it.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sanity: NumSymbols consistent with SymbolAt panics guard.
func TestSymbolConsistency(t *testing.T) {
	f := func(k []byte) bool {
		if len(k) > 64 {
			k = k[:64]
		}
		n := keys.NumSymbols(k)
		for i := 0; i < n; i++ {
			s := keys.SymbolAt(k, i)
			if s > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
