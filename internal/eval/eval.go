// Package eval computes exact XPath selectivities on a document tree.
// It is the ground truth the estimation experiments are scored against
// (the "actual" in the paper's relative error), and the filter that
// removes negative queries from generated workloads (Section 7).
//
// Semantics follow the paper's Section 5 reading of order queries: in
// q1[/q2/folls::q3] both branches hang off the same instance of q1's
// last node, and the first node of q2 must precede the first node of
// q3 among its siblings; following/preceding reach the
// descendants-or-self of following/preceding siblings (see DESIGN.md
// for the deviation from the W3C document-global axes).
//
// The evaluator runs in three phases over the query tree:
//
//  1. bottom-up: Sat(q) = document nodes satisfying the subquery
//     rooted at q, with order constraints solved per candidate by a
//     greedy topological assignment over sibling anchor positions;
//  2. top-down: Live(q) = members of Sat(q) that participate in at
//     least one full embedding of the whole query;
//  3. the selectivity of the target step is |Live(target)|.
package eval

import (
	"fmt"
	"sort"

	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// Evaluator evaluates queries against one document. It is safe for
// concurrent use after construction.
type Evaluator struct {
	doc        *xmltree.Document
	byTag      map[string][]*xmltree.Node // document order
	allNodes   []*xmltree.Node            // by Ord
	subtreeEnd []int                      // Ord -> exclusive end of subtree

	// firstOfTag/lastOfTag report whether the node has no earlier/later
	// same-tag sibling — the [1] and [last()] positional filters.
	firstOfTag []bool
	lastOfTag  []bool
}

// New indexes a document for evaluation.
func New(doc *xmltree.Document) *Evaluator {
	e := &Evaluator{
		doc:        doc,
		byTag:      make(map[string][]*xmltree.Node),
		allNodes:   make([]*xmltree.Node, doc.NumElements()),
		subtreeEnd: make([]int, doc.NumElements()),
	}
	doc.Walk(func(n *xmltree.Node) bool {
		e.allNodes[n.Ord] = n
		e.byTag[n.Tag] = append(e.byTag[n.Tag], n)
		return true
	})
	var size func(n *xmltree.Node) int
	size = func(n *xmltree.Node) int {
		s := 1
		for _, c := range n.Children {
			s += size(c)
		}
		e.subtreeEnd[n.Ord] = n.Ord + s
		return s
	}
	if doc.Root != nil {
		size(doc.Root)
	}

	e.firstOfTag = make([]bool, doc.NumElements())
	e.lastOfTag = make([]bool, doc.NumElements())
	lastSeen := map[string]*xmltree.Node{}
	doc.Walk(func(n *xmltree.Node) bool {
		clear(lastSeen)
		for _, c := range n.Children {
			if lastSeen[c.Tag] == nil {
				e.firstOfTag[c.Ord] = true
			}
			lastSeen[c.Tag] = c
		}
		for _, c := range lastSeen {
			e.lastOfTag[c.Ord] = true
		}
		return true
	})
	if doc.Root != nil {
		e.firstOfTag[doc.Root.Ord] = true
		e.lastOfTag[doc.Root.Ord] = true
	}
	return e
}

// Doc returns the document the evaluator indexes.
func (e *Evaluator) Doc() *xmltree.Document { return e.doc }

// posOK applies a step's positional filter to a candidate node.
func (e *Evaluator) posOK(n *xmltree.Node, pos xpath.PosFilter) bool {
	switch pos {
	case xpath.PosFirst:
		return e.firstOfTag[n.Ord]
	case xpath.PosLast:
		return e.lastOfTag[n.Ord]
	}
	return true
}

// Selectivity returns the number of distinct document nodes bound to
// the query's target step over all matches — the S_Q(n) of the paper.
func (e *Evaluator) Selectivity(p *xpath.Path) (int, error) {
	m, err := e.Matches(p)
	if err != nil {
		return 0, err
	}
	return len(m), nil
}

// Matches returns the distinct document nodes bound to the target
// step, in document order.
func (e *Evaluator) Matches(p *xpath.Path) ([]*xmltree.Node, error) {
	return e.MatchesFiltered(p, nil)
}

// CandidateFilter restricts the document nodes considered for a query
// node during evaluation. It must be sound (never reject a node that
// participates in a match); the pid-accelerated executor of package
// exec derives one from the path join.
type CandidateFilter func(q *xpath.TreeNode, n *xmltree.Node) bool

// MatchesFiltered is Matches with an optional candidate filter (nil
// means no restriction).
func (e *Evaluator) MatchesFiltered(p *xpath.Path, filter CandidateFilter) ([]*xmltree.Node, error) {
	tree, err := xpath.BuildTree(p)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	sat := e.computeSat(tree, filter)
	live := e.computeLive(tree, sat)
	ords := live[tree.Target]
	out := make([]*xmltree.Node, 0, len(ords))
	for ord := range ords {
		out = append(out, e.allNodes[ord])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ord < out[j].Ord })
	return out, nil
}

// SelectivityFiltered is Selectivity with an optional candidate filter.
func (e *Evaluator) SelectivityFiltered(p *xpath.Path, filter CandidateFilter) (int, error) {
	m, err := e.MatchesFiltered(p, filter)
	if err != nil {
		return 0, err
	}
	return len(m), nil
}

// satSet is a satisfiability set: sorted ord list plus membership.
type satSet struct {
	ords   []int // ascending
	member map[int]bool
}

func newSatSet() *satSet { return &satSet{member: make(map[int]bool)} }

func (s *satSet) add(ord int) {
	if !s.member[ord] {
		s.member[ord] = true
		s.ords = append(s.ords, ord)
	}
}

// anyInRange reports whether the set intersects [lo, hi). The ord list
// must be sorted, which holds when candidates are added in document
// order.
func (s *satSet) anyInRange(lo, hi int) bool {
	i := sort.SearchInts(s.ords, lo)
	return i < len(s.ords) && s.ords[i] < hi
}

// inRange returns the ords within [lo, hi).
func (s *satSet) inRange(lo, hi int) []int {
	i := sort.SearchInts(s.ords, lo)
	j := sort.SearchInts(s.ords, hi)
	return s.ords[i:j]
}

// computeSat fills Sat(q) bottom-up (postorder).
func (e *Evaluator) computeSat(tree *xpath.Tree, filter CandidateFilter) map[*xpath.TreeNode]*satSet {
	sat := make(map[*xpath.TreeNode]*satSet)
	var rec func(q *xpath.TreeNode)
	rec = func(q *xpath.TreeNode) {
		for _, c := range q.Children {
			rec(c)
		}
		set := newSatSet()
		for _, d := range e.candidates(q.Tag) {
			if q.Step != nil && !e.posOK(d, q.Step.Pos) {
				continue
			}
			if filter != nil && !filter(q, d) {
				continue
			}
			if e.localSat(tree, q, d, sat) {
				set.add(d.Ord)
			}
		}
		sat[q] = set
	}
	for _, c := range tree.VRoot.Children {
		rec(c)
	}
	return sat
}

func (e *Evaluator) candidates(tag string) []*xmltree.Node {
	if tag == "*" {
		return e.allNodes
	}
	return e.byTag[tag]
}

// localSat checks that document node d can host query node q: every
// plain structural child has a witness below d, and the order edges
// anchored at q admit a consistent sibling-position assignment.
func (e *Evaluator) localSat(tree *xpath.Tree, q *xpath.TreeNode, d *xmltree.Node, sat map[*xpath.TreeNode]*satSet) bool {
	for _, qc := range q.Children {
		if tree.InOrderEdge(qc) {
			continue // existence enforced through anchor positions
		}
		if !e.hasWitness(qc, d, sat[qc]) {
			return false
		}
	}
	edges := tree.OrderEdgesAt(q)
	if len(edges) == 0 {
		return true
	}
	domains := e.anchorDomains(edges, d, sat)
	if domains == nil {
		return false
	}
	return solveOrder(edges, domains, nil)
}

// hasWitness reports whether d has a child (Child axis) or strict
// descendant (Descendant axis) in set.
func (e *Evaluator) hasWitness(qc *xpath.TreeNode, d *xmltree.Node, set *satSet) bool {
	if qc.Axis == xpath.Descendant {
		return set.anyInRange(d.Ord+1, e.subtreeEnd[d.Ord])
	}
	// Child axis: walk the sat nodes inside d's subtree and test
	// parenthood; sat lists are usually much shorter than huge child
	// lists (e.g. the DBLP root).
	for _, ord := range set.inRange(d.Ord+1, e.subtreeEnd[d.Ord]) {
		if e.allNodes[ord].Parent == d {
			return true
		}
	}
	return false
}

// anchorDomains computes, for every distinct endpoint of the edges,
// the sorted distinct sibling positions (indexes into d.Children)
// under which a satisfying match exists. A nil return means some
// endpoint has an empty domain.
func (e *Evaluator) anchorDomains(edges []xpath.OrderEdge, d *xmltree.Node, sat map[*xpath.TreeNode]*satSet) map[*xpath.TreeNode][]int {
	domains := make(map[*xpath.TreeNode][]int)
	for _, edge := range edges {
		for _, v := range []*xpath.TreeNode{edge.Before, edge.After} {
			if _, done := domains[v]; done {
				continue
			}
			dom := e.anchorPositions(v, d, sat[v])
			if len(dom) == 0 {
				return nil
			}
			domains[v] = dom
		}
	}
	return domains
}

// anchorPositions finds the sibling positions of d's children that
// anchor a match of v: the child itself for Child-axis endpoints, the
// child whose subtree holds a match for Descendant-axis ones.
func (e *Evaluator) anchorPositions(v *xpath.TreeNode, d *xmltree.Node, set *satSet) []int {
	var out []int
	last := -1
	if v.Axis == xpath.Child {
		for _, ord := range set.inRange(d.Ord+1, e.subtreeEnd[d.Ord]) {
			n := e.allNodes[ord]
			if n.Parent == d && n.Pos != last {
				out = append(out, n.Pos)
				last = n.Pos
			}
		}
		return out
	}
	// Descendant: climb from each match to the child of d above it
	// (or the match itself when it is a direct child).
	seen := map[int]bool{}
	for _, ord := range set.inRange(d.Ord+1, e.subtreeEnd[d.Ord]) {
		n := e.allNodes[ord]
		for n.Parent != d {
			n = n.Parent
		}
		if !seen[n.Pos] {
			seen[n.Pos] = true
			out = append(out, n.Pos)
		}
	}
	sort.Ints(out)
	return out
}

// solveOrder decides whether positions can be assigned to the edge
// endpoints so that every Before endpoint sits strictly left of its
// After endpoint. fixed optionally pins endpoints to single positions
// (used by the liveness phase). The solver assigns greedily in
// topological order of the precedence DAG: each variable takes the
// smallest domain value exceeding all its predecessors' assignments,
// which is feasible iff any assignment is. Cycles are unsatisfiable.
func solveOrder(edges []xpath.OrderEdge, domains map[*xpath.TreeNode][]int, fixed map[*xpath.TreeNode]int) bool {
	// Collect variables and the precedence relation.
	var vars []*xpath.TreeNode
	index := map[*xpath.TreeNode]int{}
	addVar := func(v *xpath.TreeNode) {
		if _, ok := index[v]; !ok {
			index[v] = len(vars)
			vars = append(vars, v)
		}
	}
	for _, e := range edges {
		addVar(e.Before)
		addVar(e.After)
	}
	n := len(vars)
	preds := make([][]int, n) // preds[i] = vars that must be < vars[i]
	indeg := make([]int, n)
	for _, e := range edges {
		b, a := index[e.Before], index[e.After]
		preds[a] = append(preds[a], b)
		indeg[a]++
	}

	assigned := make([]int, n)
	done := make([]bool, n)
	remaining := n
	for remaining > 0 {
		progress := false
		for i := 0; i < n; i++ {
			if done[i] || indeg[i] != 0 {
				continue
			}
			// Lower bound: one past the max of assigned predecessors.
			low := -1
			for _, p := range preds[i] {
				if assigned[p] >= low {
					low = assigned[p] + 1
				}
			}
			dom := domains[vars[i]]
			if f, ok := fixed[vars[i]]; ok {
				if f < low {
					return false
				}
				assigned[i] = f
			} else {
				j := sort.SearchInts(dom, low)
				if j == len(dom) {
					return false
				}
				assigned[i] = dom[j]
			}
			done[i] = true
			remaining--
			progress = true
			// Release successors.
			for k := 0; k < n; k++ {
				for _, p := range preds[k] {
					if p == i {
						indeg[k]--
					}
				}
			}
		}
		if !progress {
			return false // cycle: contradictory order constraints
		}
	}
	return true
}

// computeLive propagates liveness top-down from the virtual root.
func (e *Evaluator) computeLive(tree *xpath.Tree, sat map[*xpath.TreeNode]*satSet) map[*xpath.TreeNode]map[int]bool {
	live := make(map[*xpath.TreeNode]map[int]bool)
	for _, q := range tree.Nodes {
		live[q] = make(map[int]bool)
	}

	// Seed from the virtual root, whose only "child position" is the
	// document element at position 0.
	if !e.vrootSat(tree, sat) {
		return live
	}
	for _, qc := range tree.VRoot.Children {
		e.markUsable(tree, qc, nil, sat, live)
	}

	// Preorder propagation: a node's live set is complete before its
	// children are processed because liveness only flows downward.
	var rec func(q *xpath.TreeNode)
	rec = func(q *xpath.TreeNode) {
		for ord := range live[q] {
			d := e.allNodes[ord]
			for _, qc := range q.Children {
				if !tree.InOrderEdge(qc) {
					e.markPlain(qc, d, sat, live)
				} else {
					e.markOrdered(tree, q, qc, d, sat, live)
				}
			}
		}
		for _, qc := range q.Children {
			rec(qc)
		}
	}
	for _, qc := range tree.VRoot.Children {
		rec(qc)
	}
	return live
}

// vrootSat checks the virtual root's local constraints: every plain
// top-level query node must have a witness in the document (the root
// element for Child axis), and order edges anchored at the virtual
// root must be solvable over its single child position.
func (e *Evaluator) vrootSat(tree *xpath.Tree, sat map[*xpath.TreeNode]*satSet) bool {
	root := e.doc.Root
	for _, qc := range tree.VRoot.Children {
		if tree.InOrderEdge(qc) {
			continue
		}
		if qc.Axis == xpath.Child {
			if !sat[qc].member[root.Ord] {
				return false
			}
		} else if len(sat[qc].ords) == 0 {
			return false
		}
	}
	edges := tree.OrderEdgesAt(tree.VRoot)
	if len(edges) == 0 {
		return true
	}
	domains := make(map[*xpath.TreeNode][]int)
	for _, edge := range edges {
		for _, v := range []*xpath.TreeNode{edge.Before, edge.After} {
			var dom []int
			if v.Axis == xpath.Child {
				if sat[v].member[root.Ord] {
					dom = []int{0}
				}
			} else if len(sat[v].ords) > 0 {
				dom = []int{0}
			}
			if len(dom) == 0 {
				return false
			}
			domains[v] = dom
		}
	}
	return solveOrder(edges, domains, nil)
}

// markUsable marks the top-level usable matches of qc under the
// virtual root (d == nil).
func (e *Evaluator) markUsable(tree *xpath.Tree, qc *xpath.TreeNode, _ *xmltree.Node, sat map[*xpath.TreeNode]*satSet, live map[*xpath.TreeNode]map[int]bool) {
	root := e.doc.Root
	if qc.Axis == xpath.Child {
		if sat[qc].member[root.Ord] {
			live[qc][root.Ord] = true
		}
		return
	}
	for _, ord := range sat[qc].ords {
		live[qc][ord] = true
	}
}

// markPlain marks every witness of a constraint-free child.
func (e *Evaluator) markPlain(qc *xpath.TreeNode, d *xmltree.Node, sat map[*xpath.TreeNode]*satSet, live map[*xpath.TreeNode]map[int]bool) {
	if qc.Axis == xpath.Descendant {
		for _, ord := range sat[qc].inRange(d.Ord+1, e.subtreeEnd[d.Ord]) {
			live[qc][ord] = true
		}
		return
	}
	for _, ord := range sat[qc].inRange(d.Ord+1, e.subtreeEnd[d.Ord]) {
		if e.allNodes[ord].Parent == d {
			live[qc][ord] = true
		}
	}
}

// markOrdered marks the matches of an order-constrained child qc under
// live parent d: those reachable through an anchor position that
// participates in a consistent assignment of all edges at q.
func (e *Evaluator) markOrdered(tree *xpath.Tree, q, qc *xpath.TreeNode, d *xmltree.Node, sat map[*xpath.TreeNode]*satSet, live map[*xpath.TreeNode]map[int]bool) {
	edges := tree.OrderEdgesAt(q)
	domains := e.anchorDomains(edges, d, sat)
	if domains == nil {
		return
	}
	for _, pos := range domains[qc] {
		if !solveOrder(edges, domains, map[*xpath.TreeNode]int{qc: pos}) {
			continue
		}
		anchor := d.Children[pos]
		if qc.Axis == xpath.Child {
			live[qc][anchor.Ord] = true
			continue
		}
		for _, ord := range sat[qc].inRange(anchor.Ord, e.subtreeEnd[anchor.Ord]) {
			live[qc][ord] = true
		}
	}
}
