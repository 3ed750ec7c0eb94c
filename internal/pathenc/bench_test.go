package pathenc_test

import (
	"fmt"
	"testing"

	"xpathest/internal/bitset"
	"xpathest/internal/datagen"
	"xpathest/internal/paperfig"
	"xpathest/internal/pathenc"
	"xpathest/internal/xmltree"
)

// buildBenchScales are the SSPlays scales the build-path benchmarks
// run at, ten times apart like the root package's write-path
// benchmarks, so a per-element build cost shows as a ratio between
// the two.
var buildBenchScales = []float64{0.03, 0.3}

// BenchmarkBuildLabeling labels the paper's Figure 1 document and
// SSPlays at each of buildBenchScales.
func BenchmarkBuildLabeling(b *testing.B) {
	run := func(name string, doc *xmltree.Document) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pathenc.Build(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("paperfig", paperfig.Doc())
	for _, scale := range buildBenchScales {
		run(fmt.Sprintf("scale=%g", scale), datagen.SSPlays(datagen.Config{Seed: 42, Scale: scale}))
	}
}

// BenchmarkEdgeCompatible measures the per-pair compatibility check
// the path join asks for once per (ancestor pid, descendant pid) pair
// of every query edge. The pid pairs are pre-filtered to pass the
// bit-containment test and to have multi-path descendants, so every
// call walks the encoding table over several paths — the calls that
// dominate real joins, where internal-node pids cover many paths and
// most surviving pairs get past the cheap rejection.
func BenchmarkEdgeCompatible(b *testing.B) {
	doc := datagen.SSPlays(datagen.Config{Seed: 42, Scale: 0.05})
	lab, err := pathenc.Build(doc)
	if err != nil {
		b.Fatal(err)
	}
	pids := lab.Distinct()
	type pair struct{ anc, desc *bitset.Bitset }
	var pairs []pair
	for _, a := range pids {
		for _, d := range pids {
			if a != d && d.Count() >= 2 && a.ContainsOrEqual(d) {
				pairs = append(pairs, pair{anc: a, desc: d})
			}
		}
		if len(pairs) >= 512 {
			break
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no containment-passing pid pairs in labeling")
	}
	edges := []struct {
		anc, desc string
		axis      pathenc.Axis
	}{
		{"ACT", "SCENE", pathenc.Child},
		{"SCENE", "SPEECH", pathenc.Child},
		{"PLAY", "LINE", pathenc.Descendant},
		{"PLAYS", "STAGEDIR", pathenc.Descendant},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		p := pairs[i%len(pairs)]
		lab.EdgeCompatible(e.anc, p.anc, e.desc, p.desc, e.axis)
	}
}
