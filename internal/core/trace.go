package core

import "repro/internal/keys"

// LookupLevels returns the cache-line addresses a lookup of k touches, one
// slice per trie level: the two candidate buckets of each node on the
// root-to-leaf path, plus the record line. Levels are what the memory
// simulator needs to model the prefetched (independent) probe schedule of
// Algorithm 1 — including the superfluous accesses of §4.7: both buckets
// are fetched per node, and jump nodes do not reduce the probe count (the
// probes for symbols compressed into a jump node are issued anyway).
func (tr *Trie) LookupLevels(k []byte) [][]uint64 {
	var sbuf [96]byte
	var hbuf [97]uint64
	syms := keys.AppendSymbols(sbuf[:0], k)
	lineFor := func(b uint64) uint64 { return b * bucketWords * 8 / 64 }
retry:
	for {
		t := tr.tbl.Load()
		root, rootRef, ok := tr.tryFindRoot(t)
		if !ok {
			continue
		}
		hashes := t.ladder(hbuf[:0], syms)
		var levels [][]uint64
		// addLevels issues one probe level per symbol in [from, to), even
		// inside jump nodes (§4.7).
		addLevels := func(from, to int) {
			for i := from; i < to; i++ {
				b1, b2, _ := t.bucketsOf(hashes[i+1])
				levels = append(levels, []uint64{lineFor(b1), lineFor(b2)})
			}
		}
		cur := pathNode{ent: root, ref: rootRef}
		for {
			from := cur.depth
			i, outcome := t.descend(&cur, syms, hashes)
			switch outcome {
			case soAdvanced:
				addLevels(from, i)
			case soLeaf:
				addLevels(from, i)
				// Final dependent access: the record (key comparison, §4.4).
				return append(levels, []uint64{1<<40 + uint64(cur.ent.recIdx)*32/64})
			case soMissing, soJumpMismatch:
				// The probe for the mismatching symbol is issued too.
				addLevels(from, i+1)
				return levels
			default:
				continue retry
			}
		}
	}
}
