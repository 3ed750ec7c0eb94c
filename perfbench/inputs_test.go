package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"xpathest"
)

var update = flag.Bool("update", false, "rewrite workloads.json from the generators")

// generated caches genInputs results across tests; generation is
// deterministic, and a cold pool takes seconds to filter.
var generated sync.Map // "name/seed" -> *genResult

type genResult struct {
	in  *inputs
	ref *reference
}

func gen(t *testing.T, sp spec, seed int64) (*inputs, *reference) {
	t.Helper()
	key := fmt.Sprintf("%s/%d", sp.Name, seed)
	if g, ok := generated.Load(key); ok {
		return g.(*genResult).in, g.(*genResult).ref
	}
	in, ref, _, err := genInputs(sp, seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sp.Name, seed, err)
	}
	generated.Store(key, &genResult{in: in, ref: ref})
	return in, ref
}

func sameInputs(a, b *inputs) error {
	if !bytes.Equal(a.XML, b.XML) {
		return fmt.Errorf("documents differ")
	}
	if len(a.Pool) != len(b.Pool) {
		return fmt.Errorf("pool sizes %d and %d", len(a.Pool), len(b.Pool))
	}
	for i := range a.Pool {
		if a.Pool[i] != b.Pool[i] {
			return fmt.Errorf("pool query %d: %q and %q", i, a.Pool[i], b.Pool[i])
		}
	}
	if len(a.Edits) != len(b.Edits) {
		return fmt.Errorf("edit pair counts %d and %d", len(a.Edits), len(b.Edits))
	}
	for i := range a.Edits {
		if !bytes.Equal(a.Edits[i].OpWire, b.Edits[i].OpWire) || !bytes.Equal(a.Edits[i].InverseWire, b.Edits[i].InverseWire) {
			return fmt.Errorf("edit pair %d differs", i)
		}
	}
	return nil
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		a, _ := gen(t, sp, 1)
		b, _, _, err := genInputs(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameInputs(a, b); err != nil {
			t.Errorf("%s: seed 1 generated twice: %v", sp.Name, err)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, sp := range specs {
		a, _ := gen(t, sp, 1)
		b, _ := gen(t, sp, 2)
		if sameInputs(a, b) == nil {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", sp.Name)
		}
		if fmt.Sprint(a.Pool[:10]) == fmt.Sprint(b.Pool[:10]) {
			t.Errorf("%s: seeds 1 and 2 start with the same queries", sp.Name)
		}
		if bytes.Equal(a.Edits[0].OpWire, b.Edits[0].OpWire) && bytes.Equal(a.Edits[1].OpWire, b.Edits[1].OpWire) {
			t.Errorf("%s: seeds 1 and 2 start with the same edits", sp.Name)
		}
	}
}

// TestRebuildPairsFixed checks that the rebuild pairs are the same for
// every seed, so the rebuild route's cost is not drawn anew per run,
// and that they cycle through rebuildHosts distinct places.
func TestRebuildPairsFixed(t *testing.T) {
	for _, sp := range specs {
		a, _ := gen(t, sp, 1)
		b, _ := gen(t, sp, 2)
		places := map[string]bool{}
		for k := range a.Edits {
			if a.Edits[k].Rebuild != b.Edits[k].Rebuild {
				t.Fatalf("%s pair %d: rebuild for one seed only", sp.Name, k)
			}
			if !a.Edits[k].Rebuild {
				continue
			}
			if !bytes.Equal(a.Edits[k].OpWire, b.Edits[k].OpWire) || !bytes.Equal(a.Edits[k].InverseWire, b.Edits[k].InverseWire) {
				t.Errorf("%s pair %d: seeds 1 and 2 write different rebuild pairs", sp.Name, k)
			}
			places[string(a.Edits[k].OpWire)] = true
		}
		if len(places) != rebuildHosts {
			t.Errorf("%s: rebuild pairs insert at %d places, want %d", sp.Name, len(places), rebuildHosts)
		}
	}
}

// TestReadSetsAgainstCaches checks the working set of each read
// sequence against the server's default caches, replayed through a
// real EstimateCache: a cold pool cycled in order must miss on every
// request of its second pass and outnumber the plan cache; the
// plays-edit hot set must hit on every request of its second pass and
// fit the plan cache.
func TestReadSetsAgainstCaches(t *testing.T) {
	for _, sp := range specs {
		for _, seed := range []int64{1, 2, heldOutSeed} {
			in, _ := gen(t, sp, seed)
			set := in.Pool
			if sp.HotSet > 0 {
				set = set[:min(len(set), sp.HotSet)]
			}
			qs := make([]*xpathest.Query, len(set))
			for i, q := range set {
				var err error
				if qs[i], err = xpathest.CompileQuery(q); err != nil {
					t.Fatalf("%s seed %d: pool query %q: %v", sp.Name, seed, q, err)
				}
			}
			cache := xpathest.NewEstimateCache(defaultResultCacheBytes)
			for _, q := range qs {
				cache.Put(1, sp.Name, q, 1)
			}
			hits := 0
			for _, q := range qs {
				if _, ok := cache.Get(1, sp.Name, q); ok {
					hits++
				}
				cache.Put(1, sp.Name, q, 1)
			}
			if sp.HotSet == 0 {
				if hits != 0 || len(set) <= defaultPlanCacheEntries {
					t.Errorf("%s seed %d: pool of %d queries: %d result-cache hits on the second pass; want a pool larger than both caches", sp.Name, seed, len(set), hits)
				}
			} else if hits != len(set) || len(set) > defaultPlanCacheEntries || len(set) < sp.HotSet {
				t.Errorf("%s seed %d: hot set of %d queries: %d hits on the second pass; want a full hot set inside both caches", sp.Name, seed, len(set), hits)
			}
		}
	}
}

// TestEditPairsRestoreDocument applies every pair through the public
// API: a rebuild pair's op adds exactly one path and the others add
// none, and each inverse brings the document back to its original
// bytes. At the end the maintained summary must save the bytes of a
// fresh build.
func TestEditPairsRestoreDocument(t *testing.T) {
	for _, sp := range specs {
		in, _ := gen(t, sp, 1)
		doc, err := xpathest.ParseDocument(bytes.NewReader(in.XML))
		if err != nil {
			t.Fatal(err)
		}
		sum := doc.BuildSummary(xpathest.SummaryOptions{})
		paths := doc.NumDistinctPaths()
		for k, ep := range in.Edits {
			res, err := sum.Apply(ep.Op)
			if err != nil {
				t.Fatalf("%s pair %d op: %v", sp.Name, k, err)
			}
			grew := doc.NumDistinctPaths() - paths
			if want := map[bool]int{true: 1, false: 0}[ep.Rebuild]; grew != want {
				t.Errorf("%s pair %d (rebuild %v): op added %d paths, want %d", sp.Name, k, ep.Rebuild, grew, want)
			}
			if res, err = res.Summary.Apply(ep.Inverse); err != nil {
				t.Fatalf("%s pair %d inverse: %v", sp.Name, k, err)
			}
			sum = res.Summary
			var got bytes.Buffer
			if err := doc.WriteXML(&got, false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), in.XML) {
				t.Fatalf("%s pair %d: document differs from the original after the inverse", sp.Name, k)
			}
		}
		var got, want bytes.Buffer
		if err := sum.Save(&got); err != nil {
			t.Fatal(err)
		}
		fresh, err := xpathest.ParseDocument(bytes.NewReader(in.XML))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.BuildSummary(xpathest.SummaryOptions{}).Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: summary after all pairs saves differently from a fresh build", sp.Name)
		}
	}
}

// TestWorkingSetRecord keeps workloads.json in step with the
// generators; go test -run WorkingSetRecord -update rewrites it.
func TestWorkingSetRecord(t *testing.T) {
	ws := workingSet{
		HeldOutSeed:      heldOutSeed,
		PlanCacheEntries: defaultPlanCacheEntries,
		ResultCacheBytes: defaultResultCacheBytes,
	}
	for _, sp := range specs {
		ws.Workloads = append(ws.Workloads, recordFor(sp, func(sp spec, seed int64) (*inputs, *reference) {
			return gen(t, sp, seed)
		}, []int64{1, heldOutSeed}))
	}
	data, err := json.MarshalIndent(ws, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile("workloads.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("workloads.json is out of date; run go test -run WorkingSetRecord -update")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads
// this program runs, with their reasons.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q); the program's is %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
}
