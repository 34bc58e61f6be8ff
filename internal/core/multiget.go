package core

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/keys"
)

// Batched lookups. A single Cuckoo Trie lookup already enjoys intra-key MLP:
// every level's candidate buckets are computable from the key alone, so the
// probes of one root-to-leaf descent are independent DRAM accesses (§4.4).
// MultiGet generalizes the argument *across* keys: a server draining a
// pipeline of point lookups has no dependencies between requests either, so
// the batch is resolved level-synchronously in two repeating phases —
//
//  1. stage: compute the full hash ladder H(k[:1])..H(k[:n]) for every key
//     up front and touch (prefetch) the candidate buckets of each key's next
//     probe, issuing all of the batch's independent misses back-to-back;
//  2. resolve: advance every key by one probe, which now mostly hits cache.
//
// Keys that hit a concurrency conflict (torn read, table resize) fall back
// to the single-key Get, which carries its own retry loop. Get is the same
// state machine (lookup, advance) run for one key.

// prefetch touches bucket b's first cache line so a subsequent probe of the
// bucket is likely a cache hit. The atomic load cannot be elided by the
// compiler, making it a portable stand-in for a prefetch instruction.
func (t *table) prefetch(b uint64) {
	atomic.LoadUint64(&t.words[b*bucketWords])
}

// mgScratch is MultiGet's reusable per-batch working memory.
type mgScratch struct {
	lookups []lookup
	syms    []byte
	hashes  []uint64
}

var mgScratchPool = sync.Pool{New: func() any { return new(mgScratch) }}

// lookup is one key's in-flight descent: the state machine that Get runs
// for one key and MultiGet runs for a batch, one descend step at a time.
type lookup struct {
	syms   []byte
	hashes []uint64 // hashes[i] = H(syms[:i]) under the current table
	cur    pathNode
	val    uint64
	found  bool
	done   bool
	retry  bool // conflict: restart on a fresh table
}

// nextProbeHash returns the hash of the next child this key will fetch: for
// a regular node that is the next symbol's extension; for a jump node it is
// the hash at the jump's end, since the intermediate symbols are compared
// in-entry without probing.
func (lk *lookup) nextProbeHash() (uint64, bool) {
	switch lk.cur.ent.kind {
	case kindInternal:
		if end := lk.cur.depth + 1; end < len(lk.hashes) {
			return lk.hashes[end], true
		}
	case kindJump:
		if end := lk.cur.depth + int(lk.cur.ent.jumpLen); end < len(lk.hashes) {
			return lk.hashes[end], true
		}
	}
	return 0, false
}

// advance runs one descend step of lk and, at a leaf, the paper's final
// check against the full key stored in the record (§4.4).
func (tr *Trie) advance(t *table, lk *lookup, k []byte) {
	switch _, outcome := t.descend(&lk.cur, lk.syms, lk.hashes); outcome {
	case soAdvanced: // lk.cur is the child; the next round probes below it
	case soMissing, soJumpMismatch:
		lk.done = true
	case soLeaf:
		leaf := &lk.cur
		if leaf.ent.dirty {
			lk.retry = true
			return
		}
		match := bytes.Equal(tr.recs.key(leaf.ent.recIdx), k)
		val := tr.recs.value(leaf.ent.recIdx)
		// Re-validate the leaf: if it was deleted meanwhile, its record
		// slot may have been reused and the read above is stale.
		if t.loadVersion(leaf.ref.bucket) != leaf.ref.ver {
			lk.retry = true
			return
		}
		if match {
			lk.val, lk.found = val, true
		}
		lk.done = true
	default:
		lk.retry = true
	}
}

// Get looks up key k and returns its value. This is the paper's lookup: a
// trie search (not a plain hash lookup, because the trie stores unique
// prefixes) followed by a comparison against the full key stored in the
// record (§4.4). It is a one-key run of MultiGet's state machine, with the
// symbols and the hash ladder on the stack.
func (tr *Trie) Get(k []byte) (uint64, bool) {
	if len(k) > MaxKeyLen {
		return 0, false
	}
	var sbuf [96]byte
	var hbuf [97]uint64
	syms := keys.AppendSymbols(sbuf[:0], k)
	for {
		t := tr.tbl.Load()
		root, rootRef, ok := tr.tryFindRoot(t)
		if !ok {
			continue
		}
		lk := lookup{syms: syms, hashes: t.ladder(hbuf[:0], syms), cur: pathNode{ent: root, ref: rootRef}}
		for !lk.done && !lk.retry {
			tr.advance(t, &lk, k)
		}
		if lk.done {
			return lk.val, lk.found
		}
	}
}

// MultiGet looks up a batch of keys, overlapping the independent probes of
// all descents. vals and found must each have at least len(ks) elements.
func (tr *Trie) MultiGet(ks [][]byte, vals []uint64, found []bool) {
	n := len(ks)
	if n == 0 {
		return
	}
	if n == 1 {
		vals[0], found[0] = tr.Get(ks[0])
		return
	}
	t := tr.tbl.Load()
	root, rootRef, rok := tr.tryFindRoot(t)

	// Flat per-batch scratch, pooled so the steady-state batch path is
	// allocation-free: the lookups, the symbol expansions, and the hash
	// ladders live in three buffers sliced per key.
	totalSyms := 0
	for j := 0; j < n; j++ {
		if len(ks[j]) <= MaxKeyLen {
			totalSyms += keys.NumSymbols(ks[j])
		}
	}
	sc := mgScratchPool.Get().(*mgScratch)
	defer mgScratchPool.Put(sc)
	if cap(sc.lookups) < n {
		sc.lookups = make([]lookup, n)
	}
	if cap(sc.syms) < totalSyms {
		sc.syms = make([]byte, 0, totalSyms)
	}
	if cap(sc.hashes) < totalSyms+n {
		sc.hashes = make([]uint64, 0, totalSyms+n)
	}
	lookups := sc.lookups[:n]
	symBuf := sc.syms[:0]
	hashBuf := sc.hashes[:0]

	active := 0
	for j := 0; j < n; j++ {
		lk := &lookups[j]
		*lk = lookup{} // pooled memory: clear stale results and flags
		if len(ks[j]) > MaxKeyLen {
			lk.done = true
			continue
		}
		if !rok {
			lk.retry = true
			continue
		}
		// Stage phase: symbols and the whole hash ladder, computed before any
		// probe resolves, so every level's bucket addresses are known up front.
		lo := len(symBuf)
		symBuf = keys.AppendSymbols(symBuf, ks[j])
		lk.syms = symBuf[lo:len(symBuf):len(symBuf)]
		hlo := len(hashBuf)
		hashBuf = t.ladder(hashBuf, lk.syms)
		lk.hashes = hashBuf[hlo:len(hashBuf):len(hashBuf)]
		lk.cur = pathNode{ent: root, ref: rootRef}
		active++
	}

	touch := func() {
		for j := range lookups {
			lk := &lookups[j]
			if lk.done || lk.retry {
				continue
			}
			if h, ok := lk.nextProbeHash(); ok {
				b1, b2, _ := t.bucketsOf(h)
				t.prefetch(b1)
				t.prefetch(b2)
			}
		}
	}

	touch()
	for active > 0 {
		for j := range lookups {
			lk := &lookups[j]
			if lk.done || lk.retry {
				continue
			}
			tr.advance(t, lk, ks[j])
			if lk.done || lk.retry {
				active--
			}
		}
		if active > 0 {
			touch()
		}
	}

	for j := range lookups {
		if lookups[j].retry {
			vals[j], found[j] = tr.Get(ks[j])
		} else {
			vals[j], found[j] = lookups[j].val, lookups[j].found
		}
	}
}

// MultiSet inserts or updates a batch of keys. Writes mutate shared buckets,
// so they execute sequentially; the batch form exists for interface symmetry
// and single-call convenience. errs, when non-nil, receives per-key errors;
// the return value counts newly added keys.
func (tr *Trie) MultiSet(ks [][]byte, vals []uint64, errs []error) int {
	added := 0
	for i, k := range ks {
		a, err := tr.Set(k, vals[i])
		if errs != nil {
			errs[i] = err
		}
		if err == nil && a {
			added++
		}
	}
	return added
}
