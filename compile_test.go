package xpathest

import (
	"math"
	"sync"
	"testing"
)

// TestEstimateQueryAllocatesLess checks that compiling is the only
// place a query's tree is built: estimating a compiled Query must
// allocate strictly less than estimating its text, which compiles
// first. Alloc counts do not depend on the machine.
func TestEstimateQueryAllocatesLess(t *testing.T) {
	sum := batchTestSummary(t)
	for _, text := range []string{
		"//SCENE[/SPEECH/SPEAKER]/STAGEDIR", // branch query
		"//SCENE[/SPEECH/folls::STAGEDIR]",  // order query
	} {
		q, err := CompileQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the kernel's snapshot and witness memo so neither run
		// pays for them.
		if _, err := sum.EstimateQuery(q); err != nil {
			t.Fatal(err)
		}
		compiled := testing.AllocsPerRun(20, func() { _, _ = sum.EstimateQuery(q) })
		raw := testing.AllocsPerRun(20, func() { _, _ = sum.Estimate(text) })
		if compiled >= raw {
			t.Errorf("%s: EstimateQuery allocs %v, Estimate allocs %v; want strictly fewer", text, compiled, raw)
		}
	}
}

// TestQuerySharedAcrossApply estimates the same compiled Queries from
// several goroutines at once, on a summary and on the successor Apply
// returns for it. Every estimate must equal, bit for bit, a fresh
// compile of the same text on the same summary: a Query's tree belongs
// to no summary and is only read. Under -race this also checks that
// the shared trees are never written.
func TestQuerySharedAcrossApply(t *testing.T) {
	doc, err := ParseDocumentString(applyTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	old := doc.BuildSummary(SummaryOptions{})
	texts := []string{"//c", "//a[/c]", "/r/a/c[folls::d]", "/r/a[foll::b]", "/r/a[/d]/c"}
	fresh := func(sum *Summary) []float64 {
		out := make([]float64, len(texts))
		for i, text := range texts {
			v, err := sum.Estimate(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			out[i] = v
		}
		return out
	}
	wantOld := fresh(old)
	res, err := old.Apply(EditScript{Ops: []EditOp{{Insert: true, Loc: []int{1}, Index: 1, XML: "<d></d>"}}})
	if err != nil {
		t.Fatal(err)
	}
	next := res.Summary
	wantNext := fresh(next)

	qs := make([]*Query, len(texts))
	for i, text := range texts {
		if qs[i], err = CompileQuery(text); err != nil {
			t.Fatal(err)
		}
	}
	sums := []*Summary{old, next}
	wants := [][]float64{wantOld, wantNext}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, q := range qs {
					k := (w + round + i) % 2
					v, err := sums[k].EstimateQuery(q)
					if err != nil {
						t.Errorf("%s: %v", texts[i], err)
						return
					}
					if math.Float64bits(v) != math.Float64bits(wants[k][i]) {
						t.Errorf("summary %d, %s: shared query %v, fresh compile %v", k, texts[i], v, wants[k][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
