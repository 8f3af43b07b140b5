package oem

import "math/bits"

// Bitset is a dense set of small non-negative integers, one bit each in
// 64-bit words. A mask keeps the objects it hides as one over the oid
// table; a query's existence postings are ones over the positions of its
// bindings. A bit past the end of the slice is clear: the nil Bitset is the
// empty set, and sets of different lengths combine as if zero-extended.
type Bitset []uint64

// NewBitset returns an empty set with room for the members 0..n-1.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)>>6) }

// Has reports whether i is in the set.
func (b Bitset) Has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// Add puts i in the set, growing it as needed.
func (b *Bitset) Add(i int) {
	w := i >> 6
	if w >= len(*b) {
		*b = append(*b, make(Bitset, w+1-len(*b))...)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// Count returns the number of members.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// And keeps only the members o also has.
func (b Bitset) And(o Bitset) {
	for i := range b {
		if i < len(o) {
			b[i] &= o[i]
		} else {
			b[i] = 0
		}
	}
}

// Or adds the members of o that fit in b's words.
func (b Bitset) Or(o Bitset) {
	for i := range min(len(b), len(o)) {
		b[i] |= o[i]
	}
}

// AndNot removes the members of o.
func (b Bitset) AndNot(o Bitset) {
	for i := range min(len(b), len(o)) {
		b[i] &^= o[i]
	}
}

// Not complements the set within 0..n-1; b must be as long as NewBitset(n).
func (b Bitset) Not(n int) {
	for i := range b {
		b[i] = ^b[i]
	}
	if r := uint(n) & 63; r != 0 {
		b[len(b)-1] &= 1<<r - 1
	}
}

// Union returns a fresh set holding the members of every set given.
func Union(sets ...Bitset) Bitset {
	n := 0
	for _, s := range sets {
		n = max(n, len(s))
	}
	u := make(Bitset, n)
	for _, s := range sets {
		u.Or(s)
	}
	return u
}
