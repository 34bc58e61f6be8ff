package core

import "math/bits"

// Predecessor search (§4.4, Figure 5): ascend the search path until an
// ancestor has a child smaller than the path's branch symbol, then follow
// that child's subtree-max locator straight to the predecessor leaf. The
// locator skips the whole down-traversal, which could otherwise not be
// parallelized (the max leaf's key is unknown).

// predLeaf describes a predecessor leaf found by the walk.
type predLeaf struct {
	ent  entry
	ref  entryRef
	hash uint64
}

func (p *predLeaf) loc() locator { return locator{p.hash, p.ent.color} }

// maxSetBitBelow returns the largest symbol < s present in bitmap w, or -1.
func maxSetBitBelow(w uint64, s byte) int {
	masked := w & (1<<uint(s) - 1)
	if masked == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(masked)
}

// predViaAncestors finds the predecessor of the key whose branch symbols are
// syms, walking up the recorded ancestors nodes[0..len). For each regular
// ancestor at depth d the branch symbol is syms[d]; jump ancestors cannot
// branch and are skipped. Buckets examined along the way are appended to
// vset for validation by the caller.
//
// Returns found=false when the key has no predecessor (it would be the
// global minimum), ok=false on concurrent conflict (restart the operation).
func (t *table) predViaAncestors(nodes []pathNode, syms []byte, vset *[]entryRef) (p predLeaf, found, ok bool) {
	for i := len(nodes) - 1; i >= 0; i-- {
		n := &nodes[i]
		if n.ent.kind != kindInternal {
			continue
		}
		s := syms[n.depth]
		sib := maxSetBitBelow(n.ent.w1, s)
		if sib < 0 {
			continue
		}
		hs := t.step(n.hash, byte(sib))
		child, ref, cok := t.findChild(hs, byParent(byte(sib), n.ent.color), n.ref)
		if !cok {
			return predLeaf{}, false, false
		}
		*vset = append(*vset, ref)
		if child.kind == kindLeaf {
			return predLeaf{ent: child, ref: ref, hash: hs}, true, true
		}
		// Follow the sibling's subtree-max locator to the predecessor leaf.
		ml := child.maxLeafLoc()
		leaf, lref, lok := t.followLocator(ml, ref)
		if !lok {
			return predLeaf{}, false, false
		}
		if leaf.kind != kindLeaf {
			return predLeaf{}, false, false
		}
		*vset = append(*vset, lref)
		return predLeaf{ent: leaf, ref: lref, hash: ml.hash}, true, true
	}
	return predLeaf{}, false, true
}

// maxLeafOf resolves node's subtree-max locator to its leaf. node must be an
// internal or jump node with a valid locator.
func (t *table) maxLeafOf(n *pathNode) (predLeaf, bool) {
	ml := n.ent.maxLeafLoc()
	leaf, lref, ok := t.followLocator(ml, n.ref)
	if !ok || leaf.kind != kindLeaf {
		return predLeaf{}, false
	}
	return predLeaf{ent: leaf, ref: lref, hash: ml.hash}, true
}
