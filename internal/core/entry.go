package core

// Entry encoding. Each hash table entry is one trie node, packed into three
// 64-bit words so that readers can snapshot it with three atomic loads under
// the bucket seqlock. The paper packs entries into 15 bytes (Figure 4); Go's
// race-checked memory model requires word-granular atomics, so we spend 24
// bytes and report both layouts in the memory accounting (see stats.go and
// DESIGN.md §3).
//
// Word 0 (metadata + record index):
//
//	bits  0-1   kind (empty / internal / jump / leaf)
//	bits  2-5   tag: h mod t
//	bit   6     primary: entry is in its primary bucket B1
//	bits  7-12  lastSymbol: final symbol of this node's name
//	bits 13-15  color: unique among live entries with the same hash
//	bits 16-18  parentColor: color of the parent entry (regular nodes)
//	bit   19    dirty: leaf made transiently inconsistent / deleted (§5)
//	bits 20-23  jumpLen: number of compressed symbols (jump nodes)
//	bits 24-26  locColor: color half of the locator in word 2
//	bits 27-29  childColor: color of a jump node's sole child
//	bit   30    hasNext: leaf has a successor (word 2 locator valid)
//	bit   31    hasLoc: subtree-max locator valid (internal/jump)
//	bit   32    parentIsJump: this node is the sole child of a jump node, so
//	            its parentColor field is meaningless and the entry must never
//	            match a SearchByParent probe (leaves are never jump children,
//	            so the bit does not collide with their record index)
//	bits 33-63  record index (leaves)
//
// Word 1: child bitmap (internal, 33 bits) | packed jump symbols (jump,
// 6 bits each) | unused (leaf).
//
// Word 2: locator hash — subtree-max leaf for internal/jump nodes, next leaf
// in key order for leaves. A locator is (hash, color): it survives cuckoo
// relocations, unlike a memory address (§4.4).
const (
	kindEmpty    = 0
	kindInternal = 1
	kindJump     = 2
	kindLeaf     = 3
)

type entry struct {
	kind         uint8
	tag          uint8
	primary      bool
	lastSym      byte
	color        uint8
	parentColor  uint8
	dirty        bool
	jumpLen      uint8
	locColor     uint8
	childColor   uint8
	hasNext      bool
	hasLoc       bool
	parentIsJump bool
	recIdx       uint32
	w1           uint64 // bitmap | jump symbols
	locHash      uint64 // subtree-max (internal/jump) or next-leaf (leaf) hash
}

func (e *entry) encode() (w0, w1, w2 uint64) {
	w0 = uint64(e.kind) & 3
	w0 |= uint64(e.tag&0xf) << 2
	if e.primary {
		w0 |= 1 << 6
	}
	w0 |= uint64(e.lastSym&0x3f) << 7
	w0 |= uint64(e.color&7) << 13
	w0 |= uint64(e.parentColor&7) << 16
	if e.dirty {
		w0 |= 1 << 19
	}
	w0 |= uint64(e.jumpLen&0xf) << 20
	w0 |= uint64(e.locColor&7) << 24
	w0 |= uint64(e.childColor&7) << 27
	if e.hasNext {
		w0 |= 1 << 30
	}
	if e.hasLoc {
		w0 |= 1 << 31
	}
	if e.parentIsJump {
		w0 |= 1 << 32
	}
	w0 |= uint64(e.recIdx&0x7fffffff) << 33
	return w0, e.w1, e.locHash
}

func decodeEntry(w0, w1, w2 uint64) entry {
	return entry{
		kind:         uint8(w0 & 3),
		tag:          uint8(w0 >> 2 & 0xf),
		primary:      w0>>6&1 != 0,
		lastSym:      byte(w0 >> 7 & 0x3f),
		color:        uint8(w0 >> 13 & 7),
		parentColor:  uint8(w0 >> 16 & 7),
		dirty:        w0>>19&1 != 0,
		jumpLen:      uint8(w0 >> 20 & 0xf),
		locColor:     uint8(w0 >> 24 & 7),
		childColor:   uint8(w0 >> 27 & 7),
		hasNext:      w0>>30&1 != 0,
		hasLoc:       w0>>31&1 != 0,
		parentIsJump: w0>>32&1 != 0,
		recIdx:       uint32(w0 >> 33 & 0x7fffffff),
		w1:           w1,
		locHash:      w2,
	}
}

// jumpSymbol returns the i'th compressed symbol of a jump node.
func (e *entry) jumpSymbol(i int) byte {
	return byte(e.w1 >> (6 * uint(i)) & 0x3f)
}

// packJumpSymbols packs syms (len ≤ maxJumpSymbols) into a word-1 value.
func packJumpSymbols(syms []byte) uint64 {
	var w uint64
	for i, s := range syms {
		w |= uint64(s&0x3f) << (6 * uint(i))
	}
	return w
}

// bitmap helpers: word 1 of an internal node has bit s set iff the node has a
// child whose next symbol is s.
func bitmapHas(w uint64, sym byte) bool     { return w>>uint(sym)&1 != 0 }
func bitmapSet(w uint64, sym byte) uint64   { return w | 1<<uint(sym) }
func bitmapClear(w uint64, sym byte) uint64 { return w &^ (1 << uint(sym)) }

// Word-0 matching. Every lookup in the table — a child under its parent, a
// jump node's sole child, a locator target — is a pattern over word 0
// alone, so a probe compares one atomic load per slot and decodes only the
// entry that matches. Patterns leave out the tag and primary bit, which
// depend on the bucket probed (see match.in).
const (
	w0Tag          = uint64(0xf) << 2
	w0Primary      = uint64(1) << 6
	w0LastSym      = uint64(0x3f) << 7
	w0Color        = uint64(7) << 13
	w0ParentColor  = uint64(7) << 16
	w0ParentIsJump = uint64(1) << 32
)

// match selects the live entries whose word 0 equals want under mask.
type match struct{ want, mask uint64 }

// byParent is the paper's SearchByParent (§4.2): the child of a regular
// node with color parentColor on symbol lastSym. Entries whose parent is a
// jump node carry no meaningful parentColor and never match (parentIsJump
// must be 0), which makes the match exact: among same-hash entries only the
// true child of the verified parent matches, because a trie node has at most
// one child per symbol.
func byParent(lastSym byte, parentColor uint8) match {
	return match{
		want: uint64(lastSym&0x3f)<<7 | uint64(parentColor&7)<<16,
		mask: w0LastSym | w0ParentColor | w0ParentIsJump,
	}
}

// byColor is a jump node's child: it is identified by its own color (stored
// in the jump node) rather than by parent color, because a jump node's hash
// cannot be peeled from its child's (§4.3). Colors are unique among live
// entries with the same hash, so the match is exact.
func byColor(lastSym byte, color uint8) match {
	return match{
		want: uint64(lastSym&0x3f)<<7 | uint64(color&7)<<13,
		mask: w0LastSym | w0Color,
	}
}

// byLocator is the target of locator l (Figure 4): the entry with l's hash
// and color.
func byLocator(l locator) match {
	return match{want: uint64(l.color&7) << 13, mask: w0Color}
}

// in specialises m to an entry with the given tag held in its primary
// (primary=true) or alternate bucket.
func (m match) in(tag uint8, primary bool) match {
	m.want |= uint64(tag&0xf) << 2
	if primary {
		m.want |= w0Primary
	}
	m.mask |= w0Tag | w0Primary
	return m
}

// matches reports whether a slot's word 0 holds a live entry matching m.
func (m match) matches(w0 uint64) bool {
	return w0&3 != kindEmpty && w0&m.mask == m.want
}

// locator identifies a node's entry independently of relocations: the full
// key hash plus the entry's color (Figure 4).
type locator struct {
	hash  uint64
	color uint8
}

func (e *entry) maxLeafLoc() locator  { return locator{e.locHash, e.locColor} }
func (e *entry) nextLeafLoc() locator { return locator{e.locHash, e.locColor} }

func (e *entry) setLoc(l locator) {
	e.locHash = l.hash
	e.locColor = l.color
}
