package summaryio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"xpathest/internal/core"
	"xpathest/internal/histogram"
	"xpathest/internal/paperfig"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// buildFigure1 returns the Figure 1 labeling plus histograms at the
// given variances.
func buildFigure1(t testing.TB, pv, ov float64) (*pathenc.Labeling, *histogram.PSet, *histogram.OSet) {
	t.Helper()
	tbs := stats.Collect(paperfig.Doc(), nil)
	n := tbs.Labeling.NumDistinct()
	ps := histogram.BuildPSet(tbs.Freq, n, pv)
	os := histogram.BuildOSet(tbs.Order, ps, n, ov)
	return tbs.Labeling, ps, os
}

func encode(t testing.TB, lab *pathenc.Labeling, ps *histogram.PSet, os *histogram.OSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, lab.Table, lab.Distinct(), ps, os); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripFigure1(t *testing.T) {
	for _, v := range []struct{ p, o float64 }{{0, 0}, {1, 2}, {5, 10}} {
		lab, ps, os := buildFigure1(t, v.p, v.o)
		data := encode(t, lab, ps, os)
		payload, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("variances %v: %v", v, err)
		}

		// The encoding table round-trips exactly.
		if payload.Table.NumPaths() != lab.Table.NumPaths() {
			t.Fatalf("paths %d vs %d", payload.Table.NumPaths(), lab.Table.NumPaths())
		}
		for i := 1; i <= lab.Table.NumPaths(); i++ {
			if payload.Table.Path(i) != lab.Table.Path(i) {
				t.Fatalf("path %d: %q vs %q", i, payload.Table.Path(i), lab.Table.Path(i))
			}
		}
		if len(payload.Distinct) != lab.NumDistinct() {
			t.Fatalf("distinct %d vs %d", len(payload.Distinct), lab.NumDistinct())
		}

		// Both estimators agree on every paper query.
		orig := core.New(lab, core.HistogramSource{P: ps, O: os})
		restoredLab := pathenc.EstimationLabeling(payload.Table, payload.Distinct)
		restored := core.New(restoredLab, core.HistogramSource{P: payload.P, O: payload.O})
		for _, q := range []string{
			"//A//C", "//C[/E!]/F", "//A[/C/F]/B/D",
			"A[/C[/F]/folls::B!/D]", "A![/C[/F]/folls::B/D]",
			"//A[/C/foll::D!]", "//A[/B!/pre::E]",
		} {
			want, err := orig.Estimate(xpath.MustParse(q))
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Estimate(xpath.MustParse(q))
			if err != nil {
				t.Fatalf("restored %s: %v", q, err)
			}
			if got != want {
				t.Fatalf("variances %v, %s: restored %v, original %v", v, q, got, want)
			}
		}

		// Size accounting survives the trip.
		if payload.P.SizeBytes() != ps.SizeBytes() {
			t.Fatalf("p size %d vs %d", payload.P.SizeBytes(), ps.SizeBytes())
		}
		if payload.O.SizeBytes() != os.SizeBytes() {
			t.Fatalf("o size %d vs %d", payload.O.SizeBytes(), os.SizeBytes())
		}
		if payload.P.Threshold != v.p || payload.O.Threshold != v.o {
			t.Fatalf("thresholds lost: %v/%v", payload.P.Threshold, payload.O.Threshold)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	lab, ps, os := buildFigure1(t, 1, 1)
	data := encode(t, lab, ps, os)

	// Flip every byte position one at a time (the stream is small);
	// decoding must never succeed silently with wrong content — it
	// must either fail or (for bytes the checksum protects, which is
	// all of them) report corruption.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	lab, ps, os := buildFigure1(t, 0, 0)
	data := encode(t, lab, ps, os)
	for _, cut := range []int{0, 1, 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	lab, ps, os := buildFigure1(t, 0, 0)
	data := encode(t, lab, ps, os)

	bad := append([]byte(nil), data...)
	copy(bad, "NOPE!")
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[5] = 99 // version low byte
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestEncodeRejectsForeignPid(t *testing.T) {
	lab, ps, os := buildFigure1(t, 0, 0)
	// Hand the encoder a dictionary that misses the histograms' pids.
	var buf bytes.Buffer
	if err := Encode(&buf, lab.Table, nil, ps, os); err == nil {
		t.Fatal("foreign histogram pid accepted")
	}
}

func randomDoc(rng *rand.Rand, maxNodes int) *xmltree.Document {
	tags := []string{"a", "b", "c", "d", "e"}
	b := xmltree.NewBuilder()
	n := 1
	b.Open("root")
	var grow func(depth int)
	grow = func(depth int) {
		kids := rng.Intn(5)
		for i := 0; i < kids && n < maxNodes; i++ {
			n++
			b.Open(tags[rng.Intn(len(tags))])
			if depth < 5 {
				grow(depth + 1)
			}
			b.Close()
		}
	}
	grow(0)
	b.Close()
	return b.Document()
}

// Property: round-trip over random documents and variances preserves
// every histogram lookup the estimator performs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, pv, ov uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tbs := stats.Collect(randomDoc(rng, 2+rng.Intn(150)), nil)
		n := tbs.Labeling.NumDistinct()
		ps := histogram.BuildPSet(tbs.Freq, n, float64(pv%8))
		os := histogram.BuildOSet(tbs.Order, ps, n, float64(ov%8))

		var buf bytes.Buffer
		if err := Encode(&buf, tbs.Labeling.Table, tbs.Labeling.Distinct(), ps, os); err != nil {
			return false
		}
		payload, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}

		// Every frequency lookup agrees.
		for _, tag := range ps.Tags() {
			orig := ps.Entries(tag)
			back := payload.P.Entries(tag)
			if len(orig) != len(back) {
				return false
			}
			for i := range orig {
				if !orig[i].Pid.Equal(back[i].Pid) || orig[i].Freq != back[i].Freq {
					return false
				}
			}
		}
		// Every order lookup agrees.
		for _, tag := range os.Tags() {
			h := os.Histograms()
			_ = h
			table := tbs.Order.Table(tag)
			for _, cell := range table.Cells() {
				if os.Get(tag, cell.Region, cell.Pid, cell.SibTag) !=
					payload.O.Get(tag, cell.Region, cell.Pid, cell.SibTag) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	lab, ps, os := buildFigure1(b, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, lab.Table, lab.Distinct(), ps, os); err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
