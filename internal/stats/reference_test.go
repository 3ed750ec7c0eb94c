package stats_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"xpathest/internal/datagen"
	"xpathest/internal/difftest"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
)

// cellKey names one Path-Order cell: g(pid, sib) in region of tag's
// table, with the pid by its Bitset.Key().
type cellKey struct {
	tag    string
	region stats.Region
	pid    string
	sib    string
}

// refFreq is the Key()-keyed PathId-Frequency collection, kept as an
// oracle: each tag's (pid, frequency) entries in first-occurrence
// document order.
func refFreq(doc *xmltree.Document, l *pathenc.Labeling) map[string][]stats.PidFreq {
	out := map[string][]stats.PidFreq{}
	at := map[string]map[string]int{}
	doc.Walk(func(n *xmltree.Node) bool {
		pid := l.PidOf(n)
		if at[n.Tag] == nil {
			at[n.Tag] = map[string]int{}
		}
		if i, ok := at[n.Tag][pid.Key()]; ok {
			out[n.Tag][i].Freq++
		} else {
			at[n.Tag][pid.Key()] = len(out[n.Tag])
			out[n.Tag] = append(out[n.Tag], stats.PidFreq{Pid: pid, Freq: 1})
		}
		return true
	})
	return out
}

// refOrder is the per-child order sweep the counted sweep replaced,
// kept as an oracle: for each child, left to right, it adds 1 to the
// Before cell of every tag still to come and to the After cell of
// every tag already seen.
func refOrder(groups [][]stats.GroupMember) map[cellKey]float64 {
	out := map[cellKey]float64{}
	for _, kids := range groups {
		if len(kids) < 2 {
			continue
		}
		remaining := map[string]int{}
		for _, c := range kids {
			remaining[c.Tag]++
		}
		seen := map[string]int{}
		for _, c := range kids {
			remaining[c.Tag]--
			for tag, cnt := range remaining {
				if cnt > 0 {
					out[cellKey{c.Tag, stats.Before, c.Pid.Key(), tag}]++
				}
			}
			for tag, cnt := range seen {
				if cnt > 0 {
					out[cellKey{c.Tag, stats.After, c.Pid.Key(), tag}]++
				}
			}
			seen[c.Tag]++
		}
	}
	return out
}

// siblingGroups lists every sibling group of doc in document order.
func siblingGroups(doc *xmltree.Document, l *pathenc.Labeling) [][]stats.GroupMember {
	var out [][]stats.GroupMember
	doc.Walk(func(n *xmltree.Node) bool {
		if len(n.Children) > 0 {
			g := make([]stats.GroupMember, 0, len(n.Children))
			for _, c := range n.Children {
				g = append(g, stats.GroupMember{Tag: c.Tag, Pid: l.PidOf(c)})
			}
			out = append(out, g)
		}
		return true
	})
	return out
}

// cellsOf exports every cell of a table set.
func cellsOf(ts *stats.OrderTables) map[cellKey]float64 {
	out := map[cellKey]float64{}
	for _, tag := range ts.Tags() {
		for _, c := range ts.Table(tag).Cells() {
			out[cellKey{tag, c.Region, c.Pid.Key(), c.SibTag}] = c.Count
		}
	}
	return out
}

func diffCells(got, want map[cellKey]float64) error {
	for k, w := range want {
		if g := got[k]; g != w {
			return fmt.Errorf("%s g(%x,%s) %v = %v, want %v", k.tag, k.pid, k.sib, k.region, g, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("%s g(%x,%s) %v = %v, want no cell", k.tag, k.pid, k.sib, k.region, g)
		}
	}
	return nil
}

// checkReference compares every collector of the package with the
// references on doc, whose serialization is data: Collect's frequency
// entries (in order) and cells; ApplyGroup(+1) over every sibling
// group into an empty table set, then ApplyGroup(-1), which must leave
// it empty; and CollectStream over data.
func checkReference(t *testing.T, doc *xmltree.Document, data []byte) {
	t.Helper()
	l, err := pathenc.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	groups := siblingGroups(doc, l)
	wantFreq, wantCells := refFreq(doc, l), refOrder(groups)

	tables := stats.Collect(doc, l)
	if got := len(tables.Freq.Tags()); got != len(wantFreq) {
		t.Fatalf("frequency table has %d tags, want %d", got, len(wantFreq))
	}
	for tag, want := range wantFreq {
		got := tables.Freq.Entries(tag)
		if len(got) != len(want) {
			t.Fatalf("%s: %d frequency entries, want %d", tag, len(got), len(want))
		}
		for i := range want {
			if got[i].Pid != want[i].Pid || got[i].Freq != want[i].Freq {
				t.Fatalf("%s entry %d: (%s, %v), want (%s, %v)", tag, i, got[i].Pid, got[i].Freq, want[i].Pid, want[i].Freq)
			}
		}
	}
	if err := diffCells(cellsOf(tables.Order), wantCells); err != nil {
		t.Fatalf("CollectOrder: %v", err)
	}

	var ts stats.OrderTables
	for _, g := range groups {
		ts.ApplyGroup(g, 1)
	}
	if err := diffCells(cellsOf(&ts), wantCells); err != nil {
		t.Fatalf("ApplyGroup(+1): %v", err)
	}
	for _, g := range groups {
		ts.ApplyGroup(g, -1)
	}
	if n, tags := ts.NumCells(), ts.Tags(); n != 0 || len(tags) != 0 {
		t.Fatalf("after ApplyGroup(-1): %d cells, tags %v", n, tags)
	}

	streamed, err := stats.CollectStream(func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	})
	if err != nil {
		t.Fatalf("CollectStream: %v", err)
	}
	if err := diffCells(cellsOf(streamed.Order), wantCells); err != nil {
		t.Fatalf("CollectStream order: %v", err)
	}
	// The stream interns post-order, so entry order may differ from the
	// tree's preorder on recursive documents; compare as sets.
	for tag, want := range wantFreq {
		got := map[string]float64{}
		for _, e := range streamed.Freq.Entries(tag) {
			got[e.Pid.Key()] = e.Freq
		}
		if len(got) != len(want) {
			t.Fatalf("CollectStream %s: %d frequency entries, want %d", tag, len(got), len(want))
		}
		for _, e := range want {
			if got[e.Pid.Key()] != e.Freq {
				t.Fatalf("CollectStream %s pid %s: %v, want %v", tag, e.Pid, got[e.Pid.Key()], e.Freq)
			}
		}
	}
}

// referenceShapes are fixed documents the seeded sweep may miss: a
// leaf path that is also an interior prefix, same-tag sibling runs
// split by other tags, recursion through a repeated tag, and a group
// with more distinct members than the sweep scans linearly.
var referenceShapes = []string{
	`<r><a><b/></a><a><b><c/></b></a></r>`,
	`<r><a/><a/><b/><a/><b/><b/></r>`,
	`<r><a><a><a/><b/><a/></a><b/></a><a/><a><b/></a></r>`,
	`<r><x/><y/><x><z/></x><y/><x/><x><z/></x></r>`,
	`<r><a><p0/></a><a><p1/></a><a><p2/></a><a><p3/></a><a><p4/></a><a><p5/></a><a><p6/></a><a><p7/></a><a><p8/></a><b/><a><p5/></a><a><p0/></a><b/></r>`,
}

// TestCollectorsMatchReference runs checkReference over the fixed
// shapes and over difftest documents of 300 seeds, recursive and not.
func TestCollectorsMatchReference(t *testing.T) {
	for _, s := range referenceShapes {
		doc, err := xmltree.ParseString(s)
		if err != nil {
			t.Fatal(err)
		}
		checkReference(t, doc, []byte(s))
	}
	recursive := 0
	const seeds = 300
	for seed := int64(0); seed < seeds; seed++ {
		doc := difftest.GenDoc(seed)
		if difftest.IsRecursive(doc) {
			recursive++
		}
		var buf bytes.Buffer
		if err := doc.WriteXML(&buf, false); err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkReference(t, doc, buf.Bytes())
		})
	}
	if recursive == 0 || recursive == seeds {
		t.Fatalf("%d of %d generated documents are recursive; want both kinds", recursive, seeds)
	}
}

// FuzzCollect checks the collectors against the references on any
// document xmltree.ParseString accepts.
func FuzzCollect(f *testing.F) {
	for _, s := range referenceShapes {
		f.Add(s)
	}
	f.Add(`<a/>`)
	f.Add(`<a>text<b x="1"/><!-- c --><b/></a>`)
	f.Fuzz(func(t *testing.T, input string) {
		doc, err := xmltree.ParseString(input)
		if err != nil {
			return
		}
		checkReference(t, doc, []byte(input))
	})
}

// TestBuildAllocsDoNotScale pins that labeling and collection allocate
// per distinct path, pid and cell, not per element: at ten times the
// document, Build plus Collect may allocate less than twice as often.
func TestBuildAllocsDoNotScale(t *testing.T) {
	allocs := func(scale float64) float64 {
		doc := datagen.SSPlays(datagen.Config{Seed: 42, Scale: scale})
		return testing.AllocsPerRun(2, func() {
			l, err := pathenc.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			stats.Collect(doc, l)
		})
	}
	small, large := allocs(0.03), allocs(0.3)
	if large >= 2*small {
		t.Fatalf("Build+Collect allocations: %.0f at SSPlays 0.3, %.0f at 0.03; want under 2x", large, small)
	}
}
