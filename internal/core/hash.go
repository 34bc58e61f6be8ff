// Package core implements the Cuckoo Trie (Zeitak & Morrison, SOSP 2021):
// an ordered index that stores path-compressed trie nodes in a bucketized
// cuckoo hash table keyed by node names (key prefixes), with *key
// elimination* — entries store only their last symbol, a small tag, a color,
// and their parent's color — so that the table needs constant space per node
// regardless of key length, while a whole root-to-leaf path can be probed
// with independent (parallelizable) memory reads.
package core

import (
	"math/bits"
	"math/rand"
)

// Table geometry constants. The paper configures t=16 tags and four-entry
// buckets (§4.2, Figure 4) and an alphabet of R=2^5..2^6 symbols for the
// peelable hash; we use R=64 so that data symbols (6 bits after the
// terminator shift) fit.
const (
	entriesPerBucket = 4
	tagCount         = 16 // t: number of tag values; h mod t is stored per entry
	tagShift         = 4  // log2(tagCount)
	hashR            = 64 // R: the symbol alphabet size; must exceed the max symbol
	numColors        = 8  // 2B colors for B-entry buckets (§4.2)
	maxJumpSymbols   = 9  // symbols packed per jump node (6 bits each, 54 bits)
)

// hasher computes a peelable hash (§4.2) over symbol sequences for a table
// with S buckets. The hash domain is [0, S·t) = [0, 2^k). Peelability — the
// property that h(x) is recoverable from h(x·c) and c — is what lets entry
// verification work without stored keys; the trie never *computes* the peel
// function, it only relies on its existence (§4.2, footnote 5). Any step
// that is a bijection of [0, 2^k) for each symbol is peelable:
//
//	h(ε)   = 0
//	v      = h(x) ⊕ π(c)
//	v'     = v ⊕ ⌊v / 2^⌊k/2⌋⌋
//	h(x·c) = (v' · φ) mod 2^k
//
// with π the per-table symbol permutation (symTab) and φ an odd 64-bit
// constant: the XOR-shift folds the high half into the low half, and the
// odd multiplier carries every low bit into all higher ones, so each
// symbol reaches every bit of the name's hash. (The paper's
// ⌊(h⊕c)/R⌋ + (S·t/R)·((h⊕c) mod R) is a 6-bit rotate after the XOR; it
// leaves whole bit windows of a depth-d name's hash fixed, and the table
// fills only part of its buckets before the eviction search gives up.)
type hasher struct {
	buckets uint64 // S; power of two, ≥ 64
	mask    uint64 // S-1
	domMask uint64 // S·t-1
	shift   uint   // ⌊k/2⌋ for S·t = 2^k
	kickTab [tagCount]uint64
	// symTab is a seeded permutation of the symbol alphabet, applied before
	// the peelable mix. Without it the hash depends only on the geometry
	// and the raw symbols, so a structured key set (fixed-format decimal
	// strings, say) whose node names collide DIFFERENTIALLY — pairwise XOR
	// patterns the linear step preserves — collides at every table size,
	// and a resize can never clear the over-full color class. A per-table
	// permutation keeps peelability (it is a bijection composed with the
	// peelable step) while giving every resize attempt an independent hash
	// function.
	symTab [hashR]byte
}

func newHasher(buckets uint64, seed int64) hasher {
	if buckets&(buckets-1) != 0 || buckets < hashR {
		panic("core: bucket count must be a power of two >= 64")
	}
	h := hasher{buckets: buckets, mask: buckets - 1, domMask: buckets*tagCount - 1}
	h.shift = uint(bits.TrailingZeros64(buckets*tagCount)) / 2
	rng := rand.New(rand.NewSource(seed))
	for i := range h.kickTab {
		// f: [0,t) -> [0,S): random bucket offsets for the alternate bucket.
		// Offsets must be nonzero so B1 != B2 (otherwise an entry could not
		// be relocated).
		for {
			v := rng.Uint64() & h.mask
			if v != 0 {
				h.kickTab[i] = v
				break
			}
		}
	}
	for i, p := range rng.Perm(hashR) {
		h.symTab[i] = byte(p)
	}
	return h
}

// phi is the step's odd multiplier (2^64 / the golden ratio).
const phi = 0x9E3779B97F4A7C15

// step extends hash h with one symbol. h must be in [0, S·t).
func (hs *hasher) step(h uint64, sym byte) uint64 {
	v := h ^ uint64(hs.symTab[sym])
	v ^= v >> hs.shift
	return v * phi & hs.domMask
}

// hashKey hashes the first n symbols of the symbol sequence syms.
func (hs *hasher) hashSyms(syms []byte, n int) uint64 {
	h := uint64(0)
	for i := 0; i < n; i++ {
		h = hs.step(h, syms[i])
	}
	return h
}

// ladder appends the hash ladder of syms to dst: H(syms[:i]) for i = 0 ..
// len(syms). Every descent step reads its child's hash from the ladder, and
// MultiGet computes each key's whole ladder before any probe resolves.
func (hs *hasher) ladder(dst []uint64, syms []byte) []uint64 {
	h := uint64(0)
	dst = append(dst, h)
	for _, s := range syms {
		h = hs.step(h, s)
		dst = append(dst, h)
	}
	return dst
}

// bucketsOf returns the two candidate buckets and the tag for hash h.
// B1 = ⌊h/t⌋; B2 = (B1 + f(h mod t)) mod S (§4.2).
func (hs *hasher) bucketsOf(h uint64) (b1, b2 uint64, tag uint8) {
	tag = uint8(h & (tagCount - 1))
	b1 = h >> tagShift
	b2 = (b1 + hs.kickTab[tag]) & hs.mask
	return
}

// hashOf reconstructs the full hash of an entry from its current bucket, its
// tag, and whether it resides in its primary bucket. This is what makes
// cuckoo relocations possible without storing keys.
func (hs *hasher) hashOf(bucket uint64, tag uint8, primary bool) uint64 {
	b1 := bucket
	if !primary {
		b1 = (bucket - hs.kickTab[tag]) & hs.mask
	}
	return b1<<tagShift | uint64(tag)
}

// altBucket returns the other candidate bucket for an entry currently in
// bucket with the given tag/primacy.
func (hs *hasher) altBucket(bucket uint64, tag uint8, primary bool) uint64 {
	if primary {
		return (bucket + hs.kickTab[tag]) & hs.mask
	}
	return (bucket - hs.kickTab[tag]) & hs.mask
}
