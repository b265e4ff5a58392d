package cache

import "math/bits"

// Tree pseudo-LRU replacement over a power-of-two number of ways, with
// PARD's way-mask constraint: victim selection is restricted to the ways
// allowed for the requesting DS-id, while lookups hit in any way
// (paper §4.2, Figure 4: "Way Partitioning Enabled Pseudo-LRU").
//
// The tree is stored heap-style in a uint64: node 1 is the root, node n
// has children 2n and 2n+1. A node bit of 0 means the pseudo-LRU way
// lies in the left subtree, 1 the right.

type plru uint64

// victim descends the tree toward the pseudo-LRU way, but never enters a
// subtree containing no allowed way. mask bit i set means way i may be
// chosen. mask must have at least one bit among the low `ways` bits.
func (p plru) victim(ways int, mask uint64) int {
	node := 1
	lo, hi := 0, ways // current subtree covers ways [lo,hi)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		leftMask := maskRange(mask, lo, mid)
		rightMask := maskRange(mask, mid, hi)
		var goRight bool
		switch {
		case leftMask == 0:
			goRight = true
		case rightMask == 0:
			goRight = false
		default:
			goRight = p&(1<<uint(node)) != 0
		}
		if goRight {
			node = 2*node + 1
			lo = mid
		} else {
			node = 2 * node
			hi = mid
		}
	}
	return lo
}

// touch records an access to way w: every node on the path is pointed
// away from w so w becomes most-recently-used.
func (p plru) touch(ways, w int) plru {
	node := 1
	lo, hi := 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			// Accessed left: point node right.
			p |= 1 << uint(node)
			node = 2 * node
			hi = mid
		} else {
			// Accessed right: point node left.
			p &^= 1 << uint(node)
			node = 2*node + 1
			lo = mid
		}
	}
	return p
}

// maskRange extracts mask bits [lo,hi) — nonzero if any allowed way lies
// in that subtree.
func maskRange(mask uint64, lo, hi int) uint64 {
	width := hi - lo
	return mask >> uint(lo) & (1<<uint(width) - 1)
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// log2 returns the exponent of v, a power of two.
func log2(v int) uint { return uint(bits.TrailingZeros(uint(v))) }
