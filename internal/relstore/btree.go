package relstore

import "fmt"

// An in-memory B-tree used for secondary indexes. Entries are (key Value,
// rid RowID) pairs ordered by (Compare(key), rid); duplicate keys are
// allowed, the rid tiebreak keeps entries distinct so deletion is exact.
//
// The tree is a classic order-m B-tree (m = btreeOrder): every node holds at
// most m-1 entries; internal nodes hold len(entries)+1 children. This is a
// real index structure, not a sorted slice: inserts and deletes are
// O(log n) with node splits and merges/borrows.

const btreeOrder = 32 // max children per internal node

type btreeEntry struct {
	key Value
	rid RowID
}

func entryLess(a, b btreeEntry) bool {
	if c := Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.rid < b.rid
}

type btreeNode struct {
	entries  []btreeEntry
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return n.children == nil }

type btree struct {
	root *btreeNode
}

func newBTree() *btree {
	return &btree{root: &btreeNode{}}
}

// search finds the first position >= e within a node's entries.
func nodeSearch(n *btreeNode, e btreeEntry) int {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entryLess(n.entries[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, rid). Duplicate (key, rid) pairs are ignored.
func (t *btree) Insert(key Value, rid RowID) {
	e := btreeEntry{key: key, rid: rid}
	if t.contains(e) {
		return
	}
	r := t.root
	if len(r.entries) >= btreeOrder-1 {
		// Split the root preemptively.
		newRoot := &btreeNode{children: []*btreeNode{r}}
		newRoot.splitChild(0)
		t.root = newRoot
		r = newRoot
	}
	r.insertNonFull(e)
}

func (t *btree) contains(e btreeEntry) bool {
	n := t.root
	for {
		i := nodeSearch(n, e)
		if i < len(n.entries) && !entryLess(e, n.entries[i]) && !entryLess(n.entries[i], e) {
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := len(child.entries) / 2
	midEntry := child.entries[mid]
	right := &btreeNode{
		entries: append([]btreeEntry(nil), child.entries[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.entries = child.entries[:mid]

	n.entries = append(n.entries, btreeEntry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = midEntry
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *btreeNode) insertNonFull(e btreeEntry) {
	for {
		i := nodeSearch(n, e)
		if n.leaf() {
			n.entries = append(n.entries, btreeEntry{})
			copy(n.entries[i+1:], n.entries[i:])
			n.entries[i] = e
			return
		}
		child := n.children[i]
		if len(child.entries) >= btreeOrder-1 {
			n.splitChild(i)
			if entryLess(n.entries[i], e) {
				i++
			}
			child = n.children[i]
		}
		n = child
	}
}

// Delete removes (key, rid) if present and reports whether it was removed.
func (t *btree) Delete(key Value, rid RowID) bool {
	e := btreeEntry{key: key, rid: rid}
	if !t.contains(e) {
		return false
	}
	t.root.delete(e)
	if len(t.root.entries) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return true
}

const btreeMin = (btreeOrder - 1) / 2 // minimum entries for non-root nodes

func entryEq(a, b btreeEntry) bool {
	return !entryLess(a, b) && !entryLess(b, a)
}

// delete removes e from the subtree rooted at n using the standard CLRS
// B-tree deletion: before descending into a child, the child is guaranteed
// to hold more than btreeMin entries (by borrowing or merging), so removal
// never needs to propagate back up.
func (n *btreeNode) delete(e btreeEntry) {
	i := nodeSearch(n, e)
	found := i < len(n.entries) && entryEq(n.entries[i], e)
	if n.leaf() {
		if found {
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
		}
		return
	}
	if found {
		left, right := n.children[i], n.children[i+1]
		switch {
		case len(left.entries) > btreeMin:
			pred := left.max()
			n.entries[i] = pred
			left.delete(pred)
		case len(right.entries) > btreeMin:
			succ := right.min()
			n.entries[i] = succ
			right.delete(succ)
		default:
			n.mergeChildren(i) // e moves into the merged child
			n.children[i].delete(e)
		}
		return
	}
	if len(n.children[i].entries) <= btreeMin {
		i = n.fixChild(i)
	}
	n.children[i].delete(e)
}

// fixChild guarantees children[i] has more than btreeMin entries by
// borrowing from a sibling or merging with one; it returns the (possibly
// shifted) index of the child covering the same key range.
func (n *btreeNode) fixChild(i int) int {
	child := n.children[i]
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].entries) > btreeMin {
		left := n.children[i-1]
		child.entries = append([]btreeEntry{n.entries[i-1]}, child.entries...)
		n.entries[i-1] = left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		if !child.leaf() {
			child.children = append([]*btreeNode{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
		return i
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].entries) > btreeMin {
		right := n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		n.entries[i] = right.entries[0]
		right.entries = right.entries[1:]
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = right.children[1:]
		}
		return i
	}
	// Merge with a sibling.
	if i > 0 {
		n.mergeChildren(i - 1)
		return i - 1
	}
	n.mergeChildren(i)
	return i
}

// mergeChildren merges children[i] and children[i+1] around entries[i].
func (n *btreeNode) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.entries = append(left.entries, n.entries[i])
	left.entries = append(left.entries, right.entries...)
	if !left.leaf() {
		left.children = append(left.children, right.children...)
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (n *btreeNode) max() btreeEntry {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.entries[len(n.entries)-1]
}

func (n *btreeNode) min() btreeEntry {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.entries[0]
}

// Lookup returns the rids whose key equals key, in ascending rid order.
func (t *btree) Lookup(key Value) []RowID {
	var out []RowID
	t.root.lookup(key, &out)
	return out
}

// lookup appends the rids of n's subtree whose key equals key, in entry
// order: it descends left of every entry not below key and stops at the
// first entry above it.
func (n *btreeNode) lookup(key Value, out *[]RowID) {
	for i, e := range n.entries {
		c := Compare(e.key, key)
		if c >= 0 && !n.leaf() {
			n.children[i].lookup(key, out)
		}
		if c > 0 {
			return
		}
		if c == 0 {
			*out = append(*out, e.rid)
		}
	}
	if !n.leaf() {
		n.children[len(n.children)-1].lookup(key, out)
	}
}

// check verifies B-tree invariants (used by tests): ordering, node fill, and
// uniform leaf depth. It returns the depth of the subtree.
func (n *btreeNode) check(isRoot bool) (depth int, err error) {
	for i := 1; i < len(n.entries); i++ {
		if !entryLess(n.entries[i-1], n.entries[i]) {
			return 0, errf("entries out of order at %d", i)
		}
	}
	if !isRoot && len(n.entries) < btreeMin {
		return 0, errf("underfull node: %d entries", len(n.entries))
	}
	if len(n.entries) > btreeOrder-1 {
		return 0, errf("overfull node: %d entries", len(n.entries))
	}
	if n.leaf() {
		return 1, nil
	}
	if len(n.children) != len(n.entries)+1 {
		return 0, errf("children/entries mismatch: %d vs %d", len(n.children), len(n.entries))
	}
	d0 := -1
	for i, c := range n.children {
		d, err := c.check(false)
		if err != nil {
			return 0, err
		}
		if d0 == -1 {
			d0 = d
		} else if d != d0 {
			return 0, errf("uneven depth at child %d", i)
		}
		// Separator ordering.
		if i > 0 && len(c.entries) > 0 && !entryLess(n.entries[i-1], c.entries[0]) {
			return 0, errf("separator %d >= child first entry", i-1)
		}
		if i < len(n.entries) && len(c.entries) > 0 && !entryLess(c.entries[len(c.entries)-1], n.entries[i]) {
			return 0, errf("child last entry >= separator %d", i)
		}
	}
	return d0 + 1, nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("relstore: btree: "+format, args...)
}
