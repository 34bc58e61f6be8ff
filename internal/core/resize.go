package core

import "errors"

// Resizing. The hash function's domain is [0, S·t), so every node's hash —
// and hence its buckets — changes with the table size, and the table stores
// no keys to rehash from. The trie is therefore rebuilt by a DFS that
// reconstructs node names symbol-by-symbol. The paper describes an
// incremental scheme ([33], §5); ours is stop-the-world: the old table's
// buckets are all CAS-locked (draining writers), the new table is built,
// and the trie's table pointer is swapped. Old-table locks are never
// released, so stragglers holding the stale pointer fail their next version
// check and reload. In-flight reads that complete on the old table observed
// a consistent pre-resize state, which is linearizable because a resize
// changes no logical content.
//
// Within the unpublished new table, entries are addressed by locator (hash,
// color), never by slot: evictions during the rebuild may relocate them.
// Neither table has concurrent writers (the old one is locked, the new one
// unpublished), so both are read with the version-free probeQuiesced.

var errResizeRace = errors.New("cuckootrie: concurrent resize")

func (tr *Trie) resize(old *table) error {
	tr.resizeMu.Lock()
	defer tr.resizeMu.Unlock()
	if tr.tbl.Load() != old {
		return nil // another goroutine already resized
	}

	// Quiesce: lock every bucket of the old table.
	locked := make([]uint64, old.buckets)
	for b := uint64(0); b < old.buckets; b++ {
		for {
			v := old.loadVersion(b)
			if v&1 == 0 && old.tryLock(b, v) {
				locked[b] = v
				break
			}
		}
	}

	// Hash collisions are a function of S (the hash depends only on the
	// geometry and the symbols), and colliding internal nodes propagate
	// collisions to equal-symbol descendants; if one doubling still has an
	// over-full color class, keep doubling — a different S reshuffles every
	// hash value.
	var b *rebuilder
	var err error
	for factor := uint64(2); factor <= 16; factor *= 2 {
		nt := newTable(old.buckets*factor, tr.cfg.Seed+int64(old.buckets*factor))
		b = &rebuilder{src: old, dst: nt, tr: tr}
		if err = b.run(); err == nil {
			break
		}
	}
	if err != nil {
		for i := uint64(0); i < old.buckets; i++ {
			old.unlock(i, locked[i], false)
		}
		return err
	}
	tr.rootColor.Store(uint32(b.newRootColor))
	if b.minValid {
		tr.minLoc.Store(packMinLoc(b.minLoc))
	} else {
		tr.minLoc.Store(0)
	}
	tr.gen.Add(1)
	tr.tbl.Store(b.dst)
	// Old-table locks intentionally left held; the table is garbage.
	return nil
}

// maxSymbol is the largest symbol value (terminator 0 .. data 32).
const maxSymbol = 32

// rebuilder copies the trie from src to dst via DFS, assigning fresh hashes
// and colors, recomputing subtree-max locators bottom-up and re-chaining the
// leaf list left-to-right (DFS in ascending symbol order visits leaves in
// key order).
type rebuilder struct {
	src, dst *table
	tr       *Trie

	newRootColor uint8
	minLoc       locator
	minValid     bool

	prevLeaf struct {
		valid bool
		loc   locator
	}
}

func (b *rebuilder) run() error {
	rootOld, _, ok := b.src.probeQuiesced(0, byLocator(locator{0, uint8(b.tr.rootColor.Load())}))
	if !ok {
		return errResizeRace
	}
	color, err := b.insertEntry(0, rootOld)
	if err != nil {
		return err
	}
	b.newRootColor = color
	rootLoc := locator{0, color}
	maxLoc, hasMax, err := b.copyChildren(rootOld, 0, 0, rootLoc)
	if err != nil {
		return err
	}
	b.patchLoc(rootLoc, maxLoc, hasMax)
	return nil
}

// copyChildren copies the children of node old with old/new hashes oldHash/
// newHash and new-table locator newLoc. Returns the subtree-max locator.
func (b *rebuilder) copyChildren(old entry, oldHash, newHash uint64, newLoc locator) (locator, bool, error) {
	switch old.kind {
	case kindLeaf:
		return locator{}, false, nil
	case kindJump:
		oh, nh := oldHash, newHash
		for i := 0; i < int(old.jumpLen); i++ {
			s := old.jumpSymbol(i)
			oh = b.src.step(oh, s)
			nh = b.dst.step(nh, s)
		}
		lastSym := old.jumpSymbol(int(old.jumpLen) - 1)
		childOld, _, ok := b.src.probeQuiesced(oh, byColor(lastSym, old.childColor))
		if !ok {
			return locator{}, false, errResizeRace
		}
		return b.copyNode(childOld, oh, nh, newLoc, true)
	case kindInternal:
		var maxLoc locator
		var hasMax bool
		for s := 0; s <= maxSymbol; s++ {
			if !bitmapHas(old.w1, byte(s)) {
				continue
			}
			oh := b.src.step(oldHash, byte(s))
			ch := b.dst.step(newHash, byte(s))
			childOld, _, ok := b.src.probeQuiesced(oh, byParent(byte(s), old.color))
			if !ok {
				return locator{}, false, errResizeRace
			}
			ml, hm, err := b.copyNode(childOld, oh, ch, newLoc, false)
			if err != nil {
				return locator{}, false, err
			}
			if hm {
				maxLoc, hasMax = ml, true
			}
		}
		return maxLoc, hasMax, nil
	}
	return locator{}, false, errResizeRace
}

// copyNode copies one node and its subtree. parentLoc is the parent's
// new-table locator; parentIsJump selects the child-linking scheme.
func (b *rebuilder) copyNode(old entry, oldHash, newHash uint64, parentLoc locator, parentIsJump bool) (locator, bool, error) {
	ne := old
	ne.parentIsJump = parentIsJump
	if parentIsJump {
		ne.parentColor = 0
	} else {
		ne.parentColor = parentLoc.color
	}
	if ne.kind == kindLeaf {
		ne.hasNext = false
		ne.locHash = 0
		ne.locColor = 0
	}
	color, err := b.insertEntry(newHash, ne)
	if err != nil {
		return locator{}, false, err
	}
	myLoc := locator{newHash, color}
	if parentIsJump {
		b.patchChildColor(parentLoc, color)
	}
	if old.kind == kindLeaf {
		if b.prevLeaf.valid {
			b.patchNext(b.prevLeaf.loc, myLoc)
		} else {
			b.minLoc, b.minValid = myLoc, true
		}
		b.prevLeaf.valid = true
		b.prevLeaf.loc = myLoc
		return myLoc, true, nil
	}
	maxLoc, hasMax, err := b.copyChildren(old, oldHash, newHash, myLoc)
	if err != nil {
		return locator{}, false, err
	}
	b.patchLoc(myLoc, maxLoc, hasMax)
	return maxLoc, hasMax, nil
}

// insertEntry places an entry into the new (unpublished, single-threaded)
// table, running evictions as needed. Returns the assigned color.
func (b *rebuilder) insertEntry(h uint64, e entry) (uint8, error) {
	t := b.dst
	b1, b2, tag := t.bucketsOf(h)
	var used uint8
	scan := func(bk uint64, primary bool) int {
		free := -1
		for s := 0; s < entriesPerBucket; s++ {
			ee := t.loadEntry(bk, s)
			if ee.kind == kindEmpty {
				if free < 0 {
					free = s
				}
				continue
			}
			if ee.tag == tag && ee.primary == primary {
				used |= 1 << ee.color
			}
		}
		return free
	}
	f1 := scan(b1, true)
	f2 := scan(b2, false)
	color := uint8(0xff)
	for c := uint8(0); c < numColors; c++ {
		if used&(1<<c) == 0 {
			color = c
			break
		}
	}
	if color == 0xff {
		return 0, ErrTableFull
	}
	e.tag = tag
	e.color = color
	if f1 >= 0 {
		e.primary = true
		t.writeSlot(b1, f1, e)
		return color, nil
	}
	if f2 >= 0 {
		e.primary = false
		t.writeSlot(b2, f2, e)
		return color, nil
	}
	chain, ok := t.findEvictionChain(h, 512)
	if !ok || !t.applyChain(chain) {
		return 0, ErrTableFull
	}
	return b.insertEntry(h, e)
}

func (b *rebuilder) patch(l locator, f func(*entry)) {
	e, ref, ok := b.dst.probeQuiesced(l.hash, byLocator(l))
	if !ok {
		panic("cuckootrie: rebuild patch target missing")
	}
	f(&e)
	b.dst.writeSlot(ref.bucket, ref.slot, e)
}

func (b *rebuilder) patchLoc(l locator, target locator, has bool) {
	b.patch(l, func(e *entry) {
		e.hasLoc = has
		if has {
			e.setLoc(target)
		}
	})
}

func (b *rebuilder) patchNext(l locator, target locator) {
	b.patch(l, func(e *entry) {
		e.hasNext = true
		e.setLoc(target)
	})
}

func (b *rebuilder) patchChildColor(l locator, c uint8) {
	b.patch(l, func(e *entry) { e.childColor = c })
}
