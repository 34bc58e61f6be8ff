package core

// Step outcomes.
const (
	soLeaf         = iota // the step fetched a leaf
	soMissing             // a regular node lacks the child bit for the next symbol
	soJumpMismatch        // a jump node's compressed symbol differs from the key's
	soRestart             // concurrent conflict; restart with a fresh table pointer
	soAdvanced            // the step fetched an internal or jump node
)

// pathNode is one node on the root-to-terminal descent path.
type pathNode struct {
	ent   entry
	ref   entryRef
	depth int    // name length in symbols
	hash  uint64 // H(name)
}

func (p *pathNode) loc() locator { return locator{p.hash, p.ent.color} }

// childMatch is the word-0 pattern of the node's child on symbol s.
func (p *pathNode) childMatch(s byte) match {
	if p.ent.kind == kindJump {
		return byColor(s, p.ent.childColor)
	}
	return byParent(s, p.ent.color)
}

// searchState is the result of a path-recording descent.
type searchState struct {
	path    []pathNode
	outcome int
	idx     int // symbol index where the descent stopped (soMissing/soJumpMismatch)
	jumpOff int // offset within the terminal jump node (soJumpMismatch)
}

func (st *searchState) terminal() *pathNode { return &st.path[len(st.path)-1] }

// descend is the one trie step of Algorithm 1 (§4.4), shared by Get,
// MultiGet, searchPath and LookupLevels. From node cur it consumes the
// symbols of syms that cur's entry stores — one for a regular node, the
// compressed run for a jump node — comparing them in-entry without memory
// accesses, then fetches the child named by the last of them. hashes is the
// key's ladder (hashes[i] = H(syms[:i]), see hasher.ladder).
//
// On soLeaf and soAdvanced, cur becomes the child and i is the index of the
// symbol after its name; on soMissing and soJumpMismatch, cur is unchanged
// and i is the index of the symbol that does not match.
func (t *table) descend(cur *pathNode, syms []byte, hashes []uint64) (i, outcome int) {
	i = cur.depth
	switch cur.ent.kind {
	case kindInternal:
		// The terminator cannot have children, so running out of symbols
		// means a torn read; restart.
		if i >= len(syms) {
			return i, soRestart
		}
		if !bitmapHas(cur.ent.w1, syms[i]) {
			return i, soMissing
		}
	case kindJump:
		for off := 0; ; off++ {
			if i >= len(syms) {
				return i, soRestart
			}
			if cur.ent.jumpSymbol(off) != syms[i] {
				return i, soJumpMismatch
			}
			if off+1 >= int(cur.ent.jumpLen) {
				break
			}
			i++
		}
	default:
		// Reached a node that is no longer internal/jump: concurrent
		// modification slipped past a version check window; restart.
		return i, soRestart
	}
	h := hashes[i+1]
	e, ref, ok := t.findChild(h, cur.childMatch(syms[i]), cur.ref)
	if !ok {
		return i, soRestart
	}
	*cur = pathNode{ent: e, ref: ref, depth: i + 1, hash: h}
	if e.kind == kindLeaf {
		return i + 1, soLeaf
	}
	return i + 1, soAdvanced
}

// findChild fetches the entry with hash h matching m — the child of a node
// read at parent — retrying across concurrent relocations (§5: "if there is
// a concurrent relocation, the node will eventually be found in a later
// iteration"). ok=false means the parent changed or the child never turned
// up: the caller restarts.
func (t *table) findChild(h uint64, m match, parent entryRef) (entry, entryRef, bool) {
	for spin := 0; spin < 4096; spin++ {
		e, ref, found, _ := t.probe(h, m)
		if t.loadVersion(parent.bucket) != parent.ver {
			return entry{}, entryRef{}, false
		}
		if found {
			return e, ref, true
		}
	}
	return entry{}, entryRef{}, false
}

// searchPath descends the trie for the symbol sequence syms, recording every
// node visited. This is Algorithm 1 with path recording for writers.
func (tr *Trie) searchPath(t *table, syms []byte, path []pathNode) ([]pathNode, searchState) {
	root, rootRef, ok := tr.tryFindRoot(t)
	if !ok {
		return path, searchState{outcome: soRestart}
	}
	var hbuf [97]uint64
	hashes := t.ladder(hbuf[:0], syms)
	path = append(path[:0], pathNode{ent: root, ref: rootRef})
	for {
		// Step a copy of the terminal node, so the path keeps the parent.
		path = append(path, path[len(path)-1])
		i, outcome := t.descend(&path[len(path)-1], syms, hashes)
		switch outcome {
		case soAdvanced:
			continue
		case soLeaf:
			return path, searchState{path: path, outcome: soLeaf, idx: i}
		case soRestart:
			return path, searchState{outcome: soRestart}
		}
		path = path[:len(path)-1] // the step fetched nothing
		st := searchState{path: path, outcome: outcome, idx: i}
		if outcome == soJumpMismatch {
			st.jumpOff = i - path[len(path)-1].depth
		}
		return path, st
	}
}

// tryFindRoot locates the root with bounded retries.
func (tr *Trie) tryFindRoot(t *table) (entry, entryRef, bool) {
	for spin := 0; spin < 4096; spin++ {
		e, ref, ok := t.findByLocator(locator{0, uint8(tr.rootColor.Load())})
		if ok {
			return e, ref, true
		}
	}
	return entry{}, entryRef{}, false
}

// Contains reports whether k is present.
func (tr *Trie) Contains(k []byte) bool {
	_, ok := tr.Get(k)
	return ok
}
