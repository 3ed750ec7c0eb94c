package xpathest

import (
	"testing"
)

// batchBenchQueries are few distinct shapes repeated many times — the
// serving hot case the batch API is built for.
var batchBenchQueries = []string{
	"//PLAY/ACT/SCENE/SPEECH",
	"//ACT/SCENE/TITLE",
	"//SCENE[/SPEECH/SPEAKER]/STAGEDIR",
	"//PLAY[/FM/P]//SPEECH/LINE",
	"//SPEECH/LINE",
	"//PLAY/PERSONAE/PERSONA",
	"//ACT[/SCENE]/EPILOGUE",
	"//PLAY//STAGEDIR",
}

func batchBenchSetup(b *testing.B) (*Summary, []string) {
	b.Helper()
	doc, err := GenerateDataset(SSPlays, 42, 0.03)
	if err != nil {
		b.Fatal(err)
	}
	sum := doc.BuildSummary(SummaryOptions{})
	const n = 256
	queries := make([]string, n)
	for i := range queries {
		queries[i] = batchBenchQueries[i%len(batchBenchQueries)]
	}
	return sum, queries
}

// BenchmarkEstimateBatch runs one EstimateBatch call per iteration
// over 256 query slots (8 distinct shapes): one op is 256 slots, not
// one query, so ns/op divided by 256 is the per-slot cost.
func BenchmarkEstimateBatch(b *testing.B) {
	sum, queries := batchBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := sum.EstimateBatch(queries)
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Query, r.Err)
			}
		}
	}
}

// BenchmarkEstimateSequential is the baseline for the batch API: the
// same 256 slots as individual Estimate calls.
func BenchmarkEstimateSequential(b *testing.B) {
	sum, queries := batchBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := sum.Estimate(q); err != nil {
				b.Fatalf("%s: %v", q, err)
			}
		}
	}
}
