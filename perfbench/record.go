package main

import "math"

// workingSet is the working-set record kept in workloads.json: for each
// workload its generator parameters, its document, and its read pool
// next to the server's default cache capacities, so a cold workload
// that starts fitting a cache is caught by review.
type workingSet struct {
	HeldOutSeed      int64            `json:"held_out_seed"`
	PlanCacheEntries int              `json:"plan_cache_entries"`
	ResultCacheBytes int64            `json:"result_cache_bytes"`
	Workloads        []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Generator struct {
		Dataset      string  `json:"dataset"`
		Scale        float64 `json:"scale"`
		DocSeed      int64   `json:"doc_seed"`
		PoolDraws    int     `json:"pool_draws"`
		HotSet       int     `json:"hot_set"`
		WriteRate    float64 `json:"write_rate_per_s"`
		WritePairs   int     `json:"write_pairs"`
		WriteRounds  int     `json:"write_rounds"`
		RebuildEvery int     `json:"rebuild_every"`
		RebuildHosts int     `json:"rebuild_hosts"`
		Edit         bool    `json:"edit"`
	} `json:"generator"`
	Document struct {
		Bytes    int `json:"bytes"`
		Elements int `json:"elements"`
		Paths    int `json:"paths"`
		PathIDs  int `json:"path_ids"`
	} `json:"document"`
	// Pools holds, per seed, the pool the reader draws from; the hot set
	// of plays-edit is its first HotSet queries.
	Pools []poolRecord `json:"pools"`
}

type poolRecord struct {
	Seed             int64   `json:"seed"`
	Queries          int     `json:"queries"`
	ResultCacheBytes int64   `json:"result_cache_footprint_bytes"`
	OrderAxisShare   float64 `json:"order_axis_share"`
	ReadSet          int     `json:"read_set"`
}

// recordFor builds one workload's record from its generated inputs at
// each of the seeds.
func recordFor(sp spec, gen func(spec, int64) (*inputs, *reference), seeds []int64) workloadRecord {
	var r workloadRecord
	r.Name, r.Why = sp.Name, sp.Why
	g := &r.Generator
	g.Dataset, g.Scale, g.DocSeed, g.PoolDraws, g.HotSet = sp.Dataset, sp.Scale, docSeed, sp.PoolDraws, sp.HotSet
	g.WriteRate, g.WritePairs, g.RebuildEvery, g.RebuildHosts = sp.WriteRate, sp.WritePairs, rebuildEvery, rebuildHosts
	g.WriteRounds, g.Edit = sp.WriteRounds, sp.Edit
	for i, seed := range seeds {
		in, ref := gen(sp, seed)
		if i == 0 {
			r.Document.Bytes = len(in.XML)
			r.Document.Elements = ref.doc.NumElements()
			r.Document.Paths = ref.lab.Table.NumPaths()
			r.Document.PathIDs = ref.lab.NumDistinct()
		}
		readSet := len(in.Pool)
		if sp.HotSet > 0 {
			readSet = min(readSet, sp.HotSet)
		}
		r.Pools = append(r.Pools, poolRecord{
			Seed:             seed,
			Queries:          len(in.Pool),
			ResultCacheBytes: poolCost(in.Pool[:readSet], sp.Name),
			OrderAxisShare:   math.Round(orderShare(in.Pool)*1e4) / 1e4,
			ReadSet:          readSet,
		})
	}
	return r
}
