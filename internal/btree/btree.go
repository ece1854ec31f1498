// Package btree implements an in-memory B+ tree keyed by int64 with uint64
// values: the volatile search structure of the engine's primary-key index.
//
// Persistence lives one layer down, in internal/index: every key owns a
// fixed-size entry in Flash-backed entry pages, and this tree is the
// sorted directory over those entries. Inner nodes are derivable metadata,
// so they are never written to Flash — the tree is rebuilt from the entry
// pages (plus the write-ahead log) when a database is reopened, which
// keeps index recovery free of multi-page structure modifications.
package btree

import "sort"

// degree is the maximum number of children of an internal node. Leaves hold
// up to degree-1 keys.
const degree = 64

// Tree is a B+ tree mapping int64 keys to uint64 values.
type Tree struct {
	root *node
	size int
}

type node struct {
	leaf     bool
	keys     []int64
	values   []uint64 // leaves only, parallel to keys
	children []*node  // internal nodes only, len(keys)+1
	next     *node    // leaf chaining for range scans
}

// New creates an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.size }

// Get returns the value stored under key.
func (t *Tree) Get(key int64) (uint64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		return n.values[i], true
	}
	return 0, false
}

// childIndex returns the child to descend into for key.
func childIndex(keys []int64, key int64) int {
	return sort.Search(len(keys), func(i int) bool { return key < keys[i] })
}

// Insert stores value under key, replacing any previous value. It reports
// whether the key was newly inserted.
func (t *Tree) Insert(key int64, value uint64) bool {
	inserted, split, sepKey, right := t.root.insert(key, value)
	if split {
		newRoot := &node{
			keys:     []int64{sepKey},
			children: []*node{t.root, right},
		}
		t.root = newRoot
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert returns (newKey, didSplit, separatorKey, rightSibling).
func (n *node) insert(key int64, value uint64) (bool, bool, int64, *node) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			n.values[i] = value
			return false, false, 0, nil
		}
		n.keys = append(n.keys, 0)
		n.values = append(n.values, 0)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.values[i+1:], n.values[i:])
		n.keys[i] = key
		n.values[i] = value
		if len(n.keys) < degree {
			return true, false, 0, nil
		}
		sep, right := n.splitLeaf()
		return true, true, sep, right
	}
	ci := childIndex(n.keys, key)
	inserted, split, sepKey, right := n.children[ci].insert(key, value)
	if split {
		n.keys = append(n.keys, 0)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sepKey
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = right
		if len(n.children) > degree {
			sep, r := n.splitInternal()
			return inserted, true, sep, r
		}
	}
	return inserted, false, 0, nil
}

// splitLeaf splits a full leaf and returns the separator key and the new
// right sibling.
func (n *node) splitLeaf() (int64, *node) {
	mid := len(n.keys) / 2
	right := &node{
		leaf:   true,
		keys:   append([]int64(nil), n.keys[mid:]...),
		values: append([]uint64(nil), n.values[mid:]...),
		next:   n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.values = n.values[:mid:mid]
	n.next = right
	return right.keys[0], right
}

// splitInternal splits a full internal node.
func (n *node) splitInternal() (int64, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Delete removes key and reports whether it was present. The tree
// tolerates underflow instead of rebalancing: leaves may empty out and
// separator keys may go stale, but Get, Ascend and AscendRange all remain
// correct (scans skip empty leaves via the leaf chain; see the
// tests in btree_delete_test.go). The trade-off is memory: node count
// shrinks only when emptied key ranges are reinserted, so the tree's
// footprint tracks its high-water mark rather than its live size — fine
// for a buffer-cached primary-key index whose key space is reused, which
// is exactly how the engine employs it.
func (t *Tree) Delete(key int64) bool {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
	t.size--
	return true
}

// AscendRange calls fn for every key in [from, to), in ascending order,
// until fn returns false.
func (t *Tree) AscendRange(from, to int64, fn func(key int64, value uint64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, from)]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < from {
				continue
			}
			if k >= to {
				return
			}
			if !fn(k, n.values[i]) {
				return
			}
		}
		n = n.next
	}
}

// Ascend calls fn for every key in ascending order until fn returns false.
func (t *Tree) Ascend(fn func(key int64, value uint64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		for i, k := range n.keys {
			if !fn(k, n.values[i]) {
				return
			}
		}
		n = n.next
	}
}
