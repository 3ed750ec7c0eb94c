package xmltree

import (
	"fmt"
	"maps"

	"xpathest/internal/guard"
)

// This file holds the subtree edit primitives of the incremental
// maintenance path (package delta): splicing a detached subtree into a
// document, detaching one, and re-deriving the document-order fields
// afterwards. Attach and Detach keep the element count and the tag
// statistics current in O(subtree) — each publishes a fresh tag map,
// so a map taken from Tags before the edit never changes — but leave
// Ord and Pos stale, so every edit sequence must end with Renumber
// before the document is walked by order, labeled or serialized
// again. Bytes keeps the size recorded at parse time; edits do not try
// to re-estimate it.

// Attach splices the detached subtree sub into parent's children at
// the given index (0 ≤ index ≤ len(parent.Children)) and adds its
// elements to the document statistics. Ord and Pos are stale until
// Renumber.
func (d *Document) Attach(parent *Node, index int, sub *Node) error {
	if parent == nil || sub == nil {
		return fmt.Errorf("xmltree: attach: nil node: %w", guard.ErrInvalidArgument)
	}
	if sub.Parent != nil {
		return fmt.Errorf("xmltree: attach: subtree root %q is not detached: %w", sub.Tag, guard.ErrInvalidArgument)
	}
	if index < 0 || index > len(parent.Children) {
		return fmt.Errorf("xmltree: attach: index %d out of range [0,%d]: %w", index, len(parent.Children), guard.ErrInvalidArgument)
	}
	parent.Children = append(parent.Children, nil)
	copy(parent.Children[index+1:], parent.Children[index:])
	parent.Children[index] = sub
	sub.Parent = parent
	d.count(sub, 1)
	return nil
}

// Detach removes n (with its whole subtree) from its parent and its
// elements from the document statistics. The root cannot be detached.
// Ord and Pos are stale until Renumber.
func (d *Document) Detach(n *Node) error {
	if n == nil {
		return fmt.Errorf("xmltree: detach: nil node: %w", guard.ErrInvalidArgument)
	}
	p := n.Parent
	if p == nil {
		return fmt.Errorf("xmltree: detach: cannot detach the root: %w", guard.ErrInvalidArgument)
	}
	i := -1
	if n.Pos < len(p.Children) && p.Children[n.Pos] == n {
		i = n.Pos
	} else {
		for j, c := range p.Children {
			if c == n {
				i = j
				break
			}
		}
	}
	if i < 0 {
		return fmt.Errorf("xmltree: detach: node %q not among its parent's children: %w", n.Tag, guard.ErrInternal)
	}
	p.Children = append(p.Children[:i], p.Children[i+1:]...)
	n.Parent = nil
	d.count(n, -1)
	return nil
}

// count adds sign times the elements of sub's subtree to the element
// count and the tag statistics. It fills a copy of the tag map and
// publishes that, so a map a reader got from Tags is never mutated; a
// tag whose count drops to zero leaves the map.
func (d *Document) count(sub *Node, sign int) {
	tags := maps.Clone(d.tags)
	if tags == nil {
		tags = make(map[string]int)
	}
	var rec func(n *Node)
	rec = func(n *Node) {
		d.nodes += sign
		tags[n.Tag] += sign
		if tags[n.Tag] == 0 {
			delete(tags, n.Tag)
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(sub)
	d.tags = tags
}

// Renumber recomputes document order, sibling positions and parent
// links after a sequence of Attach/Detach edits; the statistics are
// already current.
func (d *Document) Renumber() {
	if d.Root == nil {
		return
	}
	ord := 0
	var rec func(n *Node)
	rec = func(n *Node) {
		n.Ord = ord
		ord++
		for i, c := range n.Children {
			c.Pos = i
			c.Parent = n
			rec(c)
		}
	}
	d.Root.Pos = 0
	d.Root.Parent = nil
	rec(d.Root)
}

// NodeAt resolves a child-index path from the root: the empty path is
// the root itself, and each entry selects a child of the node reached
// so far. It is the node-addressing scheme of edit scripts.
func (d *Document) NodeAt(loc []int) (*Node, error) {
	n := d.Root
	if n == nil {
		return nil, fmt.Errorf("xmltree: node at %v: empty document: %w", loc, guard.ErrInvalidArgument)
	}
	for depth, i := range loc {
		if i < 0 || i >= len(n.Children) {
			return nil, fmt.Errorf("xmltree: node at %v: index %d at depth %d out of range [0,%d): %w", loc, i, depth, len(n.Children), guard.ErrInvalidArgument)
		}
		n = n.Children[i]
	}
	return n, nil
}

// LocOf returns the child-index path addressing n from its root — the
// inverse of NodeAt. The result is nil for a root node.
func LocOf(n *Node) []int {
	var rev []int
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		p := cur.Parent
		i := -1
		if cur.Pos < len(p.Children) && p.Children[cur.Pos] == cur {
			i = cur.Pos
		} else {
			for j, c := range p.Children {
				if c == cur {
					i = j
					break
				}
			}
		}
		rev = append(rev, i)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// CloneSubtree deep-copies n's subtree into a detached tree (the copy
// of n has no parent). Pos/Ord of the copies are meaningless until the
// tree is attached and renumbered.
func CloneSubtree(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{Tag: n.Tag, Text: n.Text}
	for _, ch := range n.Children {
		cc := CloneSubtree(ch)
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// SubtreeSize counts the element nodes of n's subtree, n included.
func SubtreeSize(n *Node) int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += SubtreeSize(c)
	}
	return s
}
