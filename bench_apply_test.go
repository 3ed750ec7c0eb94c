package xpathest

import (
	"fmt"
	"testing"

	"xpathest/internal/xmltree"
)

// applyBenchScales are the two SSPlays scales the write-path
// benchmarks run at, ten times apart, so a per-edit cost that grows
// with the document shows as a ratio between the two.
var applyBenchScales = []float64{0.03, 0.3}

// benchApplyPairs runs one edit pair per iteration against a fresh
// SSPlays summary at each scale: the script first returns, then its
// inverse, which restores the document. wantRebuild is the route the
// forward script must take.
func benchApplyPairs(b *testing.B, script func(*Document) EditScript, wantRebuild bool) {
	for _, scale := range applyBenchScales {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			doc, err := GenerateDataset(SSPlays, 42, scale)
			if err != nil {
				b.Fatal(err)
			}
			sum := doc.BuildSummary(SummaryOptions{})
			sc := script(doc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sum.Apply(sc)
				if err != nil {
					b.Fatal(err)
				}
				if (res.RebuildOps == 1) != wantRebuild {
					b.Fatalf("edit took %d fast, %d rebuild ops", res.FastOps, res.RebuildOps)
				}
				back, err := res.Summary.Apply(res.Inverse)
				if err != nil {
					b.Fatal(err)
				}
				sum = back.Summary
			}
		})
	}
}

// BenchmarkApplyFast deletes a leaf that has a same-tag leaf sibling
// and reinserts it: neither op changes the document's path structure,
// so both take Apply's fast route. One op is the pair.
func BenchmarkApplyFast(b *testing.B) {
	benchApplyPairs(b, func(d *Document) EditScript {
		var leaves []*xmltree.Node
		d.doc.Walk(func(n *xmltree.Node) bool {
			seen := map[string]int{}
			for _, c := range n.Children {
				if c.IsLeaf() {
					seen[c.Tag]++
				}
			}
			for _, c := range n.Children {
				if c.IsLeaf() && seen[c.Tag] > 1 {
					leaves = append(leaves, c)
				}
			}
			return true
		})
		if len(leaves) == 0 {
			b.Fatal("no repeated leaf to delete")
		}
		return EditScript{Ops: []EditOp{{Loc: xmltree.LocOf(leaves[len(leaves)/2])}}}
	}, false)
}

// BenchmarkApplyRebuild inserts a leaf with a tag the document does not
// use and deletes it again: the new root-to-leaf path forces Apply's
// rebuild route on both ops. One op is the pair.
func BenchmarkApplyRebuild(b *testing.B) {
	benchApplyPairs(b, func(*Document) EditScript {
		return EditScript{Ops: []EditOp{{Insert: true, Loc: []int{}, Index: 0, XML: "<zzbench></zzbench>"}}}
	}, true)
}
