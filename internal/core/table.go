package core

import (
	"runtime"
	"sync/atomic"
)

// bucketWords is the stride of one bucket in the flat word array: one
// version/lock word followed by four 3-word entries. The paper co-locates a
// 32-bit seqlock with four 15-byte entries in one 64-byte cache line
// (Figure 4); our Go layout is 104 bytes (see entry.go for why).
const bucketWords = 1 + entriesPerBucket*3

// table is one immutable-geometry bucketized cuckoo hash table. Resizing
// builds a new table and atomically swaps the trie's pointer to it, so all
// geometry here is fixed for the table's lifetime.
type table struct {
	hasher
	words []uint64 // len = buckets * bucketWords
}

func newTable(buckets uint64, seed int64) *table {
	return &table{
		hasher: newHasher(buckets, seed),
		words:  make([]uint64, buckets*bucketWords),
	}
}

func (t *table) versionAddr(b uint64) *uint64 { return &t.words[b*bucketWords] }

func (t *table) loadVersion(b uint64) uint64 {
	return atomic.LoadUint64(t.versionAddr(b))
}

// slotRef names one entry slot in the table.
type slotRef struct {
	bucket uint64
	slot   int
}

// entryRef is a slotRef plus the bucket version observed when the entry was
// read. Writers CAS the version from this value to lock-and-validate in one
// step (§5: "simultaneously locks the buckets and verifies they have not
// changed ... using an atomic compare-and-swap").
type entryRef struct {
	slotRef
	ver uint64
}

// loadEntry decodes slot i of bucket b with three atomic loads. Callers
// validate the read against the bucket version, or read a table no one
// writes.
func (t *table) loadEntry(b uint64, i int) entry {
	base := b*bucketWords + 1 + uint64(i)*3
	return decodeEntry(atomic.LoadUint64(&t.words[base]),
		atomic.LoadUint64(&t.words[base+1]), atomic.LoadUint64(&t.words[base+2]))
}

// matchSlot is the one slot matcher: the first slot of bucket b whose
// word 0 holds a live entry matching m, or -1. It reads no version: callers
// wrap it in the bucket's seqlock (scanBucket) or read a table no one
// writes (the rebuilder's quiesced source and unpublished destination).
func (t *table) matchSlot(b uint64, m match) int {
	base := b*bucketWords + 1
	for i := 0; i < entriesPerBucket; i++ {
		if m.matches(atomic.LoadUint64(&t.words[base+uint64(i)*3])) {
			return i
		}
	}
	return -1
}

// scanBucket runs matchSlot under bucket b's seqlock and decodes only the
// matching entry. ok=false means a writer held or changed the bucket;
// found=false with ok=true means a consistent read found nothing.
func (t *table) scanBucket(b uint64, m match) (e entry, ref entryRef, found, ok bool) {
	v := t.loadVersion(b)
	if v&1 != 0 {
		return entry{}, entryRef{}, false, false
	}
	i := t.matchSlot(b, m)
	if i >= 0 {
		base := b*bucketWords + 1 + uint64(i)*3
		e = decodeEntry(atomic.LoadUint64(&t.words[base]),
			atomic.LoadUint64(&t.words[base+1]), atomic.LoadUint64(&t.words[base+2]))
	}
	if t.loadVersion(b) != v {
		return entry{}, entryRef{}, false, false
	}
	if i < 0 {
		return entry{}, entryRef{}, false, true
	}
	return e, entryRef{slotRef{b, i}, v}, true, true
}

// probe looks for the entry with hash h matching m in h's two candidate
// buckets, each read under its seqlock. A hit is conclusive; a miss is
// conclusive only when ok (every bucket read was consistent).
func (t *table) probe(h uint64, m match) (e entry, ref entryRef, found, ok bool) {
	b1, b2, tag := t.bucketsOf(h)
	e, ref, found, ok1 := t.scanBucket(b1, m.in(tag, true))
	if found {
		return e, ref, true, true
	}
	e, ref, found, ok = t.scanBucket(b2, m.in(tag, false))
	return e, ref, found, ok && ok1
}

// probeQuiesced is probe for a table no one writes concurrently.
func (t *table) probeQuiesced(h uint64, m match) (entry, slotRef, bool) {
	b1, b2, tag := t.bucketsOf(h)
	if i := t.matchSlot(b1, m.in(tag, true)); i >= 0 {
		return t.loadEntry(b1, i), slotRef{b1, i}, true
	}
	if i := t.matchSlot(b2, m.in(tag, false)); i >= 0 {
		return t.loadEntry(b2, i), slotRef{b2, i}, true
	}
	return entry{}, slotRef{}, false
}

// bucketSnap is a consistent snapshot of one bucket.
type bucketSnap struct {
	ver     uint64
	entries [entriesPerBucket]entry
}

// readBucket snapshots a whole bucket, for the callers that need every
// entry: writers' plan snapshots, the eviction search and Stats. Lookups use
// scanBucket, which decodes only the match. Spins briefly while a writer
// holds the seqlock.
func (t *table) readBucket(b uint64) (bucketSnap, bool) {
	for spin := 0; spin < 64; spin++ {
		v := t.loadVersion(b)
		if v&1 != 0 {
			if spin > 16 {
				runtime.Gosched()
			}
			continue
		}
		s := bucketSnap{ver: v}
		for i := range s.entries {
			s.entries[i] = t.loadEntry(b, i)
		}
		if t.loadVersion(b) == v {
			return s, true
		}
	}
	return bucketSnap{}, false
}

// writeSlot stores an entry into a slot. The caller must hold the bucket's
// seqlock (odd version). Stores are atomic so concurrent seqlock readers see
// no torn words (they will discard the read anyway when the version check
// fails).
func (t *table) writeSlot(b uint64, slot int, e entry) {
	base := b*bucketWords + 1 + uint64(slot)*3
	w0, w1, w2 := e.encode()
	atomic.StoreUint64(&t.words[base], w0)
	atomic.StoreUint64(&t.words[base+1], w1)
	atomic.StoreUint64(&t.words[base+2], w2)
}

func (t *table) clearSlot(b uint64, slot int) {
	t.writeSlot(b, slot, entry{})
}

// tryLock CAS-locks bucket b, validating that its version still equals ver.
func (t *table) tryLock(b uint64, ver uint64) bool {
	if ver&1 != 0 {
		return false
	}
	return atomic.CompareAndSwapUint64(t.versionAddr(b), ver, ver+1)
}

// unlock releases bucket b. bump selects whether the content changed
// (readers must retry: version advances to ver+2) or not (version restored).
func (t *table) unlock(b uint64, ver uint64, bump bool) {
	if bump {
		atomic.StoreUint64(t.versionAddr(b), ver+2)
	} else {
		atomic.StoreUint64(t.versionAddr(b), ver)
	}
}

func (s *bucketSnap) freeSlot() int {
	for i := range s.entries {
		if s.entries[i].kind == kindEmpty {
			return i
		}
	}
	return -1
}

// lockSet acquires a set of bucket seqlocks in sorted order, validating each
// bucket's recorded version. All-or-nothing: any failure releases everything.
// Sorted acquisition is not required for safety (acquisition never blocks)
// but reduces livelock between writers with overlapping sets.
type lockSet struct {
	buckets []uint64
	vers    []uint64
	n       int
}

func (ls *lockSet) reset() { ls.n = 0 }

// add registers bucket b with expected version ver. Duplicate buckets are
// merged; conflicting expected versions fail the eventual acquire.
func (ls *lockSet) add(b uint64, ver uint64) {
	for i := 0; i < ls.n; i++ {
		if ls.buckets[i] == b {
			if ls.vers[i] != ver {
				// Two observations of the same bucket disagree: mark
				// poisoned so acquire fails and the operation restarts.
				ls.vers[i] = ^uint64(0)
			}
			return
		}
	}
	if ls.n < len(ls.buckets) {
		ls.buckets[ls.n] = b
		ls.vers[ls.n] = ver
	} else {
		ls.buckets = append(ls.buckets, b)
		ls.vers = append(ls.vers, ver)
	}
	ls.n++
}

func (ls *lockSet) sort() {
	// Insertion sort: sets are small (O(path length)).
	for i := 1; i < ls.n; i++ {
		b, v := ls.buckets[i], ls.vers[i]
		j := i - 1
		for j >= 0 && ls.buckets[j] > b {
			ls.buckets[j+1], ls.vers[j+1] = ls.buckets[j], ls.vers[j]
			j--
		}
		ls.buckets[j+1], ls.vers[j+1] = b, v
	}
}

// acquire locks every bucket in the set. On failure everything is released
// and acquire reports false; the caller restarts its operation.
func (ls *lockSet) acquire(t *table) bool {
	ls.sort()
	for i := 0; i < ls.n; i++ {
		if !t.tryLock(ls.buckets[i], ls.vers[i]) {
			for j := i - 1; j >= 0; j-- {
				t.unlock(ls.buckets[j], ls.vers[j], false)
			}
			return false
		}
	}
	return true
}

// release unlocks all buckets, bumping versions (content changed).
func (ls *lockSet) release(t *table, bump bool) {
	for i := 0; i < ls.n; i++ {
		t.unlock(ls.buckets[i], ls.vers[i], bump)
	}
}

func (ls *lockSet) holds(b uint64) bool {
	for i := 0; i < ls.n; i++ {
		if ls.buckets[i] == b {
			return true
		}
	}
	return false
}
