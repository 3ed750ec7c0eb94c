package pathenc_test

import (
	"strings"
	"testing"

	"xpathest/internal/bitset"
	"xpathest/internal/difftest"
	"xpathest/internal/pathenc"
	"xpathest/internal/xmltree"
)

// refLabeling is the output of refBuild: the encoding table's paths in
// encoding order, each node's pid by Ord, and the distinct pids in
// first-interning order.
type refLabeling struct {
	paths    []string
	pids     []*bitset.Bitset
	distinct []*bitset.Bitset
}

// refBuild is the string-keyed labeling Build replaced, kept as an
// oracle: a PathString per leaf for the encoding table, a joined path
// string per leaf and a Bitset.Key() per node for the bottom-up
// interning.
func refBuild(doc *xmltree.Document) refLabeling {
	var r refLabeling
	byPath := map[string]int{}
	doc.Walk(func(n *xmltree.Node) bool {
		if n.IsLeaf() {
			p := n.PathString()
			if _, ok := byPath[p]; !ok {
				r.paths = append(r.paths, p)
				byPath[p] = len(r.paths)
			}
		}
		return true
	})
	r.pids = make([]*bitset.Bitset, doc.NumElements())
	index := map[string]*bitset.Bitset{}
	var assign func(n *xmltree.Node, prefix []string) *bitset.Bitset
	assign = func(n *xmltree.Node, prefix []string) *bitset.Bitset {
		pid := bitset.New(len(r.paths))
		if n.IsLeaf() {
			pid.Set(byPath[strings.Join(append(prefix, n.Tag), "/")])
		} else {
			childPrefix := append(prefix, n.Tag)
			for _, c := range n.Children {
				pid.Or(assign(c, childPrefix))
			}
		}
		if p, ok := index[pid.Key()]; ok {
			pid = p
		} else {
			index[pid.Key()] = pid
			r.distinct = append(r.distinct, pid)
		}
		r.pids[n.Ord] = pid
		return pid
	}
	if doc.Root != nil {
		assign(doc.Root, nil)
	}
	return r
}

// referenceShapes are fixed documents the seeded sweep may miss: a
// leaf path that is also an interior prefix (r/a/b is a leaf under the
// first a and an interior node under the second), same-tag sibling
// runs, and recursion through a repeated tag.
var referenceShapes = []string{
	`<r><a><b/></a><a><b><c/></b></a></r>`,
	`<r><a><b><c/></b></a><a><b/></a></r>`,
	`<r><a/><a/><b/><a/><b/><b/></r>`,
	`<r><a><a><a/></a><b/></a><a/></r>`,
	`<r/>`,
}

// referenceDocs returns the fixed shapes plus difftest documents of
// seeds 0..n-1, and fails unless both recursive and non-recursive
// documents are among them.
func referenceDocs(t *testing.T, n int) []*xmltree.Document {
	t.Helper()
	var docs []*xmltree.Document
	for _, s := range referenceShapes {
		doc, err := xmltree.ParseString(s)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	recursive := 0
	for seed := int64(0); seed < int64(n); seed++ {
		doc := difftest.GenDoc(seed)
		if difftest.IsRecursive(doc) {
			recursive++
		}
		docs = append(docs, doc)
	}
	if recursive == 0 || recursive == n {
		t.Fatalf("%d of %d generated documents are recursive; want both kinds", recursive, n)
	}
	return docs
}

// TestBuildMatchesReference checks Build against the string-keyed
// reference: the same encoding table, bit-equal pids node by node, and
// the same Distinct() order.
func TestBuildMatchesReference(t *testing.T) {
	for i, doc := range referenceDocs(t, 300) {
		want := refBuild(doc)
		l, err := pathenc.Build(doc)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if got := l.Table.NumPaths(); got != len(want.paths) {
			t.Fatalf("doc %d: %d paths, want %d", i, got, len(want.paths))
		}
		for enc, p := range want.paths {
			if got := l.Table.Path(enc + 1); got != p {
				t.Fatalf("doc %d: path %d = %q, want %q", i, enc+1, got, p)
			}
		}
		doc.Walk(func(n *xmltree.Node) bool {
			if !l.PidOf(n).Equal(want.pids[n.Ord]) {
				t.Fatalf("doc %d: node %d (%s) pid %s, want %s", i, n.Ord, n.Tag, l.PidOf(n), want.pids[n.Ord])
			}
			return true
		})
		got := l.Distinct()
		if len(got) != len(want.distinct) {
			t.Fatalf("doc %d: %d distinct pids, want %d", i, len(got), len(want.distinct))
		}
		for k := range got {
			if !got[k].Equal(want.distinct[k]) {
				t.Fatalf("doc %d: distinct[%d] = %s, want %s", i, k, got[k], want.distinct[k])
			}
			if id, ok := l.DenseID(got[k]); !ok || int(id) != k {
				t.Fatalf("doc %d: DenseID(distinct[%d]) = %d, %v", i, k, id, ok)
			}
		}
	}
}

// TestInternReusesScratch pins Intern's copy-on-new contract: the
// caller's bitset is never retained, so it may be reused.
func TestInternReusesScratch(t *testing.T) {
	l := pathenc.EstimationLabeling(mustTable(t, "r/a", "r/b"), nil)
	scratch := bitset.New(2)
	scratch.Set(1)
	a := l.Intern(scratch)
	if a == scratch {
		t.Fatal("Intern retained the caller's bitset")
	}
	scratch.Reset()
	scratch.Set(2)
	b := l.Intern(scratch)
	if a.String() != "10" || b.String() != "01" || l.NumDistinct() != 2 {
		t.Fatalf("interned %s, %s (%d distinct)", a, b, l.NumDistinct())
	}
	scratch.Reset()
	scratch.Set(1)
	if l.Intern(scratch) != a {
		t.Fatal("equal bits did not resolve to the canonical instance")
	}
	if id, ok := l.DenseID(scratch); !ok || id != 0 {
		t.Fatalf("DenseID of an equal-bits copy = %d, %v", id, ok)
	}
	// A hit, by Intern or by DenseID's key fallback, allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		l.Intern(scratch)
		l.DenseID(scratch)
	}); n != 0 {
		t.Fatalf("interning a known pid allocated %v times", n)
	}
}

func mustTable(t *testing.T, paths ...string) *pathenc.Table {
	t.Helper()
	tbl, err := pathenc.NewTable(paths)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
