package core

import (
	"bytes"
	"math/bits"

	"repro/internal/keys"
)

// Deletion (§4.5): find the leaf and its predecessor, clear the leaf's bit
// in its parent's bitmap, unlink it from the leaf list, update subtree-max
// locators that pointed at it, and collapse the surrounding structure:
//
//   - if the parent is left with a single child that is a leaf, the whole
//     single-leaf subtree (the "tail") is replaced by that leaf, hoisted to
//     the shallowest position (past any jump nodes directly above);
//   - if the single remaining child is an interior node, the parent becomes
//     a jump node toward it (path compression), merging with the child when
//     the child is itself a short-enough jump node.
//
// Hoisting moves a leaf, changing its locator; every reference to the old
// locator (a predecessor's next pointer, ancestors' subtree-max, the trie
// minimum) is rewritten in the same critical section.
//
// The paper's artifact omits deletions (§6.1); this implements the design
// described in the paper as an extension.

// Delete removes key k. It reports whether the key was present.
func (tr *Trie) Delete(k []byte) bool {
	if len(k) > MaxKeyLen {
		return false
	}
	var sbuf [96]byte
	syms := keys.AppendSymbols(sbuf[:0], k)
	var pbuf [32]pathNode
	path := pbuf[:0]
	for {
		t := tr.tbl.Load()
		var st int
		st, path = tr.deleteOnce(t, syms, k, path)
		switch st {
		case insDone:
			return true
		case insFull: // not present
			return false
		}
	}
}

func (tr *Trie) deleteOnce(t *table, syms []byte, k []byte, path []pathNode) (int, []pathNode) {
	var st searchState
	path, st = tr.searchPath(t, syms, path)
	if st.outcome == soRestart {
		return insRetry, path
	}
	if st.outcome != soLeaf {
		return insFull, path
	}
	L := &path[len(path)-1]
	if !bytes.Equal(tr.recs.key(L.ent.recIdx), k) {
		if t.loadVersion(L.ref.bucket) != L.ref.ver {
			return insRetry, path // stale record read
		}
		return insFull, path
	}
	P := &path[len(path)-2]
	if P.ent.kind != kindInternal {
		// A leaf's parent is always regular (jump children are never
		// leaves); a mismatch means a torn read.
		return insRetry, path
	}
	s := L.ent.lastSym
	lLoc := L.loc()

	p := newPlan(t)
	defer p.recycle()
	for i := range path {
		p.addRef(path[i].ref)
	}

	// Predecessor of k among remaining keys.
	var pred predLeaf
	var predFound bool
	if !tr.cfg.DisableLeafList {
		var vbuf [8]entryRef
		vset := vbuf[:0]
		var ok bool
		pred, predFound, ok = t.predViaAncestors(path[:len(path)-1], syms, &vset)
		if !ok {
			return insRetry, path
		}
		for _, r := range vset {
			p.addRef(r)
		}
	}

	// Subtree-max rule: ancestors whose max was L now have pred as max.
	if !tr.cfg.DisableLeafList {
		for i := range path[:len(path)-1] {
			n := &path[i]
			if n.ent.kind == kindLeaf || !n.ent.hasLoc {
				continue
			}
			if n.ent.maxLeafLoc() != lLoc {
				continue
			}
			m := p.modify(n.ref, n.ent)
			if predFound {
				m.setLoc(pred.loc())
			} else {
				// Only a now-empty subtree can lose its max with no
				// predecessor anywhere; that happens only at the root.
				m.hasLoc = false
				m.locHash = 0
				m.locColor = 0
			}
		}
	}

	// Unlink from the leaf list.
	if !tr.cfg.DisableLeafList {
		if predFound {
			pm := p.modify(pred.ref, pred.ent)
			pm.hasNext = L.ent.hasNext
			pm.locHash = L.ent.locHash
			pm.locColor = L.ent.locColor
		} else {
			if _, ok := p.snapshot(0); !ok {
				return insRetry, path
			}
			if L.ent.hasNext {
				p.setMin(L.ent.nextLeafLoc())
			} else {
				p.clearMin()
			}
		}
	}

	// Structural update around the parent.
	pm := p.modify(P.ref, P.ent)
	pm.w1 = bitmapClear(pm.w1, s)

	var moved bool
	var cOldLoc, cNewLoc locator
	if len(path) > 2 { // P is not the root
		remaining := pm.w1
		if popcount33(remaining) == 1 {
			s2 := byte(lowestSetBit(remaining))
			hC := t.step(P.hash, s2)
			C, cRef, ok := t.findChild(hC, byParent(s2, P.ent.color), P.ref)
			if !ok {
				return insRetry, path
			}
			p.addRef(cRef)
			if C.kind == kindLeaf {
				// Hoist C to the shallowest position above P whose parent
				// is not a jump node.
				hostIdx := len(path) - 2
				for hostIdx > 1 && path[hostIdx-1].ent.kind == kindJump {
					hostIdx--
				}
				host := &path[hostIdx]
				cOldLoc = locator{hC, C.color}
				cNewLoc = host.loc()
				moved = true

				hm := p.modify(host.ref, host.ent)
				keep := *hm // after any subtree-max rule edits
				hm.kind = kindLeaf
				hm.tag = keep.tag
				hm.primary = keep.primary
				hm.lastSym = keep.lastSym
				hm.color = keep.color
				hm.parentColor = keep.parentColor
				hm.parentIsJump = keep.parentIsJump
				hm.dirty = false
				hm.jumpLen = 0
				hm.childColor = 0
				hm.hasLoc = false
				hm.w1 = 0
				hm.recIdx = C.recIdx
				if C.hasNext && C.nextLeafLoc() == lLoc {
					// C's successor was the deleted leaf: skip over it.
					hm.hasNext = L.ent.hasNext
					hm.locHash = L.ent.locHash
					hm.locColor = L.ent.locColor
				} else {
					hm.hasNext = C.hasNext
					hm.locHash = C.locHash
					hm.locColor = C.locColor
				}

				// The leaf pointing at C must be retargeted. If k < kc the
				// pointer is pred→L→C and the pred.next update above already
				// routes to C (via L.next == C); translation below fixes it
				// to the new location. If kc < k, C's own predecessor is
				// found above P.
				if s > s2 && !tr.cfg.DisableLeafList {
					var vbuf [8]entryRef
					vset := vbuf[:0]
					prevC, prevFound, ok := t.predViaAncestors(path[:len(path)-2], syms, &vset)
					if !ok {
						return insRetry, path
					}
					for _, r := range vset {
						p.addRef(r)
					}
					if prevFound {
						if prevC.ref.slotRef != cRef.slotRef {
							pv := p.modify(prevC.ref, prevC.ent)
							pv.setLoc(cNewLoc)
							pv.hasNext = true
						}
					} else {
						if _, ok := p.snapshot(0); !ok {
							return insRetry, path
						}
						p.setMin(cNewLoc)
					}
				}

				// Ancestors above the host whose subtree-max was C must
				// track it to its new position.
				if !tr.cfg.DisableLeafList {
					for i := 0; i < hostIdx; i++ {
						n := &path[i]
						if n.ent.kind == kindLeaf || !n.ent.hasLoc {
							continue
						}
						if n.ent.maxLeafLoc() == cOldLoc {
							m := p.modify(n.ref, n.ent)
							m.setLoc(cNewLoc)
						}
					}
				}

				// Remove the tail: everything strictly between host and L,
				// plus C's old slot.
				for i := hostIdx + 1; i < len(path)-1; i++ {
					p.clearEntry(path[i].ref)
				}
				p.clearEntry(cRef)
			} else {
				// Convert P into a jump node toward C; merge if C is a
				// short jump.
				pm.kind = kindJump
				if C.kind == kindJump && 1+int(C.jumpLen) <= maxJumpSymbols {
					symsM := make([]byte, 0, maxJumpSymbols)
					symsM = append(symsM, s2)
					for i := 0; i < int(C.jumpLen); i++ {
						symsM = append(symsM, C.jumpSymbol(i))
					}
					pm.jumpLen = uint8(len(symsM))
					pm.w1 = packJumpSymbols(symsM)
					pm.childColor = C.childColor
					p.clearEntry(cRef)
				} else {
					pm.jumpLen = 1
					pm.w1 = packJumpSymbols([]byte{s2})
					pm.childColor = C.color
					cm := p.modify(cRef, C)
					cm.parentIsJump = true
					cm.parentColor = 0
				}
			}
		}
	}

	// Remove the leaf itself.
	p.clearEntry(L.ref)

	// Translate every reference to C's old locator (the hoist moved it).
	if moved {
		for i := range p.mods {
			e := &p.mods[i].ent
			translateLoc(e, cOldLoc, cNewLoc)
		}
		for i := range p.writes {
			translateLoc(&p.writes[i].ent, cOldLoc, cNewLoc)
		}
		if p.minUpdate && !p.minClear && p.newMin == cOldLoc {
			p.newMin = cNewLoc
		}
	}

	if p.failed {
		return insRetry, path
	}
	if !p.apply(tr) {
		return insRetry, path
	}
	tr.recs.release(L.ent.recIdx)
	tr.count.Add(-1)
	return insDone, path
}

// translateLoc rewrites e's locator word if it references from.
func translateLoc(e *entry, from, to locator) {
	switch e.kind {
	case kindLeaf:
		if e.hasNext && e.nextLeafLoc() == from {
			e.setLoc(to)
		}
	case kindInternal, kindJump:
		if e.hasLoc && e.maxLeafLoc() == from {
			e.setLoc(to)
		}
	}
}

func popcount33(w uint64) int   { return bits.OnesCount64(w) }
func lowestSetBit(w uint64) int { return bits.TrailingZeros64(w) }
