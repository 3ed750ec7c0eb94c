package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xpathest"
	"xpathest/internal/core"
	"xpathest/internal/delta"
	"xpathest/internal/eval"
	"xpathest/internal/summaryio"
	"xpathest/internal/summarystore"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

const (
	// buildReps is how many times the traced run walks the build chain.
	buildReps = 5
	// replayReads is how many reads the traced run replays in-process
	// and sends again, traced and untraced, through the server.
	replayReads = 2000
	// allocSample is how many queries the allocation counts cover.
	allocSample = 200
	// replayPairs is how many edit pairs the traced run applies
	// in-process, on both the public and the delta route.
	replayPairs = 10
	// tracedWritePairs caps the edit pairs of the traced server phase.
	tracedWritePairs = 25
)

// runTraced replays the run's inputs through each layer's public
// functions, one span per call, and through the server with a span
// per request. It reports the per-layer metrics and prints the layer
// report on standard error; the spans go to a JSON-lines file under
// .bench_build when the run ends.
func runTraced(ctx context.Context, sp spec, seed int64, work string) (result, error) {
	in, ref, want, err := genInputs(sp, seed)
	if err != nil {
		return result{}, err
	}
	items := readItems(sp.Name, in.Pool, want)
	seq := readSequence(sp, items)
	tr := newTracer()
	var tot tally
	m := map[string]metric{}

	if err := traceBuildChain(ctx, tr, in.XML, seq[0].query, work); err != nil {
		return result{}, err
	}
	// The pool filter estimated the whole pool on ref.est, so its
	// memoized kernel state is complete, like the server's after its
	// warm-up pass; the public summary gets the same pass as a batch.
	sample := seq[:min(len(seq), allocSample)]
	m["xpath.parse_allocs"] = metric{medianAllocs(sample, func(q string) { _, _ = xpath.Parse(q) }, nil), "count"}
	m["xpath.tree_allocs"] = metric{medianAllocs(sample, nil, func(p *xpath.Path) { _, _ = xpath.BuildTree(p) }), "count"}
	m["core.estimate_allocs"] = metric{medianAllocs(sample, nil, func(p *xpath.Path) { _, _ = ref.est.Estimate(p) }), "count"}

	doc, err := xpathest.ParseDocument(bytes.NewReader(in.XML))
	if err != nil {
		return result{}, err
	}
	sum := doc.BuildSummary(xpathest.SummaryOptions{})
	queries := make([]string, len(seq))
	for i, it := range seq {
		queries[i] = it.query
	}
	sum.EstimateBatch(queries)
	tot.add(replayReadsInProcess(tr, ref.est, sum, seq[:min(len(seq), replayReads)]))

	sv, err := traceServer(ctx, tr, sp, in, seq, items, work)
	if err != nil {
		return result{}, err
	}
	tot.add(sv.tally)

	t, err := replayWritesInProcess(ctx, tr, in, work)
	if err != nil {
		return result{}, err
	}
	tot.add(t)

	layerMetrics(tr, sp, seed, in, len(seq), sv, m)
	if err := tr.write(filepath.Join(".bench_build", "perfbench-trace-"+sp.Name+".jsonl")); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: attempted %d, failed %d\n", sp.Name, seed, tot.attempted, tot.failed)
	return result{Correct: tot.failed == 0, Attempted: tot.attempted, Failed: tot.failed, Metrics: m}, nil
}

// traceBuildChain walks the build chain buildReps times: the reference
// pipeline's layers, the first estimate on a fresh core.New (the lazy
// columnar snapshot), the summary codec, and a store save and load.
func traceBuildChain(ctx context.Context, tr *tracer, xml []byte, probe string, work string) error {
	dir := filepath.Join(work, "trace-store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	store, err := summarystore.Open(summarystore.Config{FS: summarystore.Dir(dir)})
	if err != nil {
		return err
	}
	p, err := xpath.Parse(probe)
	if err != nil {
		return err
	}
	for rep := 0; rep < buildReps; rep++ {
		req := int64(rep)
		root := tr.begin("bench.build", -1, req)
		r, err := buildReferenceTraced(xml, tr, root, req)
		if err != nil {
			return err
		}
		est := core.New(r.lab, core.HistogramSource{P: r.ps, O: r.os})
		s := tr.begin("core.snapshot", root, req)
		_, err = est.Estimate(p)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("first estimate on a fresh kernel: %w", err)
		}
		s = tr.begin("summaryio.encode", root, req)
		data, err := r.encode()
		tr.end(s)
		if err != nil {
			return err
		}
		tr.count("summaryio.bytes", float64(len(data)))
		s = tr.begin("summaryio.decode", root, req)
		_, err = summaryio.DecodeBytes(data, 0)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("decoding summary: %w", err)
		}
		loaded, err := xpathest.ReadSummary(bytes.NewReader(data))
		if err != nil {
			return err
		}
		s = tr.begin("summarystore.save", root, req)
		err = store.Save(ctx, "trace"+summarystore.Suffix, loaded)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("summarystore.load", root, req)
		_, err = store.Load(ctx, "trace"+summarystore.Suffix)
		tr.end(s)
		if err != nil {
			return err
		}
		tr.end(root)
	}
	return nil
}

// medianAllocs is the median number of heap allocations of one call,
// counted single-threaded. Exactly one of onString and onPath is set;
// onPath gets a fresh parse of the query, made outside the count.
func medianAllocs(items []readItem, onString func(string), onPath func(*xpath.Path)) float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var ms runtime.MemStats
	counts := make([]float64, 0, len(items))
	for _, it := range items {
		var p *xpath.Path
		if onPath != nil {
			var err error
			if p, err = xpath.Parse(it.query); err != nil {
				continue
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if onPath != nil {
			onPath(p)
		} else {
			onString(it.query)
		}
		runtime.ReadMemStats(&ms)
		counts = append(counts, float64(ms.Mallocs-before))
	}
	return median(counts)
}

// replayReadsInProcess sends each read through the layers in turn:
// xpath.Parse, xpath.BuildTree, the reference core estimator (full
// estimate and path join alone), xpathest.CompileQuery and
// Summary.EstimateQuery, and an EstimateCache hit. Span Req is the
// read's sequence position, so server spans pair with these.
func replayReadsInProcess(tr *tracer, est *core.Estimator, sum *xpathest.Summary, seq []readItem) tally {
	var t tally
	cache := xpathest.NewEstimateCache(64 << 20)
	for i, it := range seq {
		req := int64(i)
		root := tr.begin("bench.replay", -1, req)
		s := tr.begin("xpath.parse", root, req)
		p, err := xpath.Parse(it.query)
		tr.end(s)
		t.attempted++
		if err != nil {
			t.fail("replay %s: parse: %v", it.query, err)
			tr.end(root)
			continue
		}
		s = tr.begin("xpath.tree", root, req)
		_, terr := xpath.BuildTree(p)
		tr.end(s)
		name := "core.estimate"
		if p.HasOrderAxis() {
			name = "core.estimate_order"
		}
		s = tr.begin(name, root, req)
		v, eerr := est.Estimate(p)
		tr.end(s)
		// RawJoinEstimate rejects wildcard steps that Estimate's order
		// rewrite drops; only its successful calls are join spans.
		j0 := time.Now()
		if _, err := est.RawJoinEstimate(p); err == nil {
			tr.record("core.join", j0, time.Now(), root, req)
		}
		s = tr.begin("xpathest.compile", root, req)
		q, cerr := xpathest.CompileQuery(it.query)
		tr.end(s)
		var v2 float64
		var qerr error
		if cerr == nil {
			s = tr.begin("xpathest.estimate", root, req)
			v2, qerr = sum.EstimateQuery(q)
			tr.end(s)
			cache.Put(0, "replay", q, v2)
			s = tr.begin("xpathest.cache_hit", root, req)
			v3, hit := cache.Get(0, "replay", q)
			tr.end(s)
			if !hit || math.Float64bits(v3) != math.Float64bits(v2) {
				qerr = fmt.Errorf("cache miss after put")
			}
		}
		tr.end(root)
		if terr != nil || eerr != nil || cerr != nil || qerr != nil ||
			math.Float64bits(v) != math.Float64bits(it.want) || math.Float64bits(v2) != math.Float64bits(it.want) {
			t.fail("replay %s: core %v, public %v, reference %v; errors %v %v %v %v", it.query, v, v2, it.want, terr, eerr, cerr, qerr)
		}
	}
	return t
}

// serverTrace is what the traced server phase measured beyond spans.
type serverTrace struct {
	tally
	untracedUs, tracedUs float64 // median round trip of the two read halves
	before, after        health
	writes               writeResult
	setup                time.Duration
}

// traceServer sets the server up once and sends the first replayReads
// reads of the sequence, alternating a traced request (even positions,
// whose span Req pairs it with its in-process replay) and an untraced
// one (odd positions, the baseline of bench.trace_overhead). Writes
// follow the workload's shape: one phase of every pair on the cold
// workloads; on plays-edit, the replayPairs pairs alone (so their
// round trips compare with the in-process replay of the same pairs),
// then the next pairs beside a traced reader, as the end-to-end run
// sends them. Cache counters cover all of it.
func traceServer(ctx context.Context, tr *tracer, sp spec, in *inputs, seq, items []readItem, work string) (serverTrace, error) {
	var sv serverTrace
	storeDir, image := "", []byte(nil)
	if sp.Edit {
		storeDir = filepath.Join(work, "server-store")
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return sv, err
		}
		var err error
		if image, err = storeImage(in.XML); err != nil {
			return sv, err
		}
	}
	h, d, v, err := startServer(ctx, newClient(), sp.Name, in.XML, storeDir, seq[0].query)
	if err != nil {
		return sv, err
	}
	defer h.stop()
	sv.setup = d
	sv.attempted++
	if math.Float64bits(v) != math.Float64bits(seq[0].want) {
		sv.fail("traced setup: first estimate %v, reference %v", v, seq[0].want)
	}
	_, t := h.readLoop(ctx, seq, len(seq)/2, 0, time.Now().Add(500*time.Millisecond), nil, nil)
	sv.add(t)
	if t, err = h.warmUp(ctx, seq); err != nil {
		return sv, err
	}
	sv.add(t)
	if sv.before, err = h.health(ctx); err != nil {
		return sv, err
	}
	var traced, untraced []time.Duration
	for pos := 0; pos < replayReads; pos++ {
		if pos%2 == 0 {
			l, t := h.readLoop(ctx, seq, pos, 1, time.Time{}, nil, tr)
			traced = append(traced, l...)
			sv.add(t)
		} else {
			l, t := h.readLoop(ctx, seq, pos, 1, time.Time{}, nil, nil)
			untraced = append(untraced, l...)
			sv.add(t)
		}
	}
	sv.tracedUs = medianOf(traced) / 1e3
	sv.untracedUs = medianOf(untraced) / 1e3

	if sp.Edit {
		solo := in.Edits[:min(len(in.Edits), replayPairs)]
		w := h.writeLoop(ctx, solo, 2*len(solo), sp.WriteRate, time.Now(), tr, "server.delta")
		sv.add(w.tally)
		rest := in.Edits[len(solo):]
		rest = rest[:min(len(rest), tracedWritePairs)]
		stop := make(chan struct{})
		done := make(chan struct{})
		var rt tally
		t0 := time.Now()
		go func() {
			defer close(done)
			_, rt = h.readLoop(ctx, seq, replayReads, 0, time.Time{}, stop, tr)
		}()
		sv.writes = h.writeLoop(ctx, rest, 2*len(rest), sp.WriteRate, t0, tr, "server.delta_mixed")
		close(stop)
		<-done
		sv.add(rt)
	} else {
		pairs := min(len(in.Edits), tracedWritePairs)
		sv.writes = h.writeLoop(ctx, in.Edits, 2*pairs, sp.WriteRate, time.Now(), tr, "server.delta")
	}
	sv.add(sv.writes.tally)
	if sv.after, err = h.health(ctx); err != nil {
		return sv, err
	}
	sv.add(h.checkEnd(ctx, checkSet(sp, items), storeDir, image))
	return sv, nil
}

// replayWritesInProcess applies the first replayPairs edit pairs twice
// in-process: through Summary.Apply on a public document, saving each
// successor through the summary store as the server does, and
// through delta.Apply on the reference state, rebuilding the exact
// evaluator after each write as Summary.Apply does. Both copies must
// end byte-identical to the original document and its summary.
func replayWritesInProcess(ctx context.Context, tr *tracer, in *inputs, work string) (tally, error) {
	var t tally
	dir := filepath.Join(work, "replay-store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return t, err
	}
	store, err := summarystore.Open(summarystore.Config{FS: summarystore.Dir(dir)})
	if err != nil {
		return t, err
	}
	doc, err := xpathest.ParseDocument(bytes.NewReader(in.XML))
	if err != nil {
		return t, err
	}
	sum := doc.BuildSummary(xpathest.SummaryOptions{})
	ref, err := buildReference(in.XML)
	if err != nil {
		return t, err
	}
	st := &delta.State{Doc: ref.doc, Lab: ref.lab, Tables: ref.tables, PS: ref.ps, OS: ref.os}
	pairs := in.Edits[:min(len(in.Edits), replayPairs)]
	for i := 0; i < 2*len(pairs); i++ {
		ep := pairs[i/2]
		wireBody, script := ep.OpWire, ep.Op
		if i%2 == 1 {
			wireBody, script = ep.InverseWire, ep.Inverse
		}
		route := "fast"
		if ep.Rebuild {
			route = "rebuild"
		}
		req := int64(i)
		root := tr.begin("bench.write", -1, req)
		s := tr.begin("xpathest.decode", root, req)
		sc, err := xpathest.DecodeEditScript(bytes.NewReader(wireBody), 0)
		tr.end(s)
		t.attempted++
		if err != nil {
			return t, fmt.Errorf("decoding edit %d: %w", i, err)
		}
		s = tr.begin("xpathest.apply_"+route, root, req)
		res, err := sum.Apply(sc)
		tr.end(s)
		if err != nil {
			return t, fmt.Errorf("Summary.Apply of edit %d: %w", i, err)
		}
		if (res.RebuildOps == 1) != ep.Rebuild {
			t.fail("edit %d: Summary.Apply took %d fast, %d rebuild ops; rebuild pair %v", i, res.FastOps, res.RebuildOps, ep.Rebuild)
		}
		sum = res.Summary
		s = tr.begin("summarystore.save", root, req)
		err = store.Save(ctx, "replay"+summarystore.Suffix, sum)
		tr.end(s)
		if err != nil {
			return t, err
		}
		if fi, err := os.Stat(filepath.Join(dir, "replay"+summarystore.Suffix)); err == nil {
			tr.count("summarystore.bytes_per_delta", float64(fi.Size()))
		}

		ds, err := toDelta(script)
		if err != nil {
			return t, err
		}
		s = tr.begin("delta.apply_"+route, root, req)
		dres, err := delta.Apply(st, ds, delta.Options{})
		tr.end(s)
		if err != nil {
			return t, fmt.Errorf("delta.Apply of edit %d: %w", i, err)
		}
		if (dres.RebuildOps == 1) != ep.Rebuild {
			t.fail("edit %d: delta.Apply took %d fast, %d rebuild ops; rebuild pair %v", i, dres.FastOps, dres.RebuildOps, ep.Rebuild)
		}
		s = tr.begin("eval.new", root, req)
		_ = eval.New(st.Doc)
		tr.end(s)
		tr.end(root)
	}
	// Both copies are back at the original document: the public one
	// must save the bytes a fresh build saves, the delta one must
	// serialize to the original document.
	t.attempted += 2
	var got bytes.Buffer
	if err := sum.Save(&got); err != nil {
		return t, err
	}
	want, err := storeImage(in.XML)
	if err != nil {
		return t, err
	}
	if !bytes.Equal(summaryio.Seal(got.Bytes()), want) {
		t.fail("in-process replay: summary after the edit pairs differs from a fresh build")
	}
	var xml bytes.Buffer
	if err := st.Doc.WriteXML(&xml, false); err != nil {
		return t, err
	}
	if !bytes.Equal(xml.Bytes(), in.XML) {
		t.fail("in-process replay: document after the edit pairs differs from the original")
	}
	return t, nil
}

// toDelta converts a public edit script to the delta package's form,
// parsing each insert payload.
func toDelta(sc xpathest.EditScript) (delta.Script, error) {
	var out delta.Script
	for _, op := range sc.Ops {
		if !op.Insert {
			out.Ops = append(out.Ops, delta.Op{Kind: delta.Delete, Loc: op.Loc})
			continue
		}
		sub, err := xmltree.ParseString(op.XML)
		if err != nil {
			return delta.Script{}, fmt.Errorf("parsing insert payload: %w", err)
		}
		out.Ops = append(out.Ops, delta.Op{Kind: delta.Insert, Loc: op.Loc, Index: op.Index, Subtree: sub.Root})
	}
	return out, nil
}

// medianMs is the median duration of the named spans, in ms (NaN when
// there are none).
func medianMs(tr *tracer, name string) float64 {
	return medianOf(tr.durations(name)) / 1e6
}

func medianOf(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// readPairing pairs each traced request of the read segment with the
// in-process replay of the same input: compile + estimate for a cold
// read, a cache hit for a hot-set read, which both server caches serve.
type readPairing struct {
	// selfUs is server.self_us: the median over requests of the round
	// trip minus its in-process counterpart.
	selfUs float64
	// Means over the paired requests of the round trip, of the self
	// time and of the layer spans that make up the in-process part
	// (xpath.Parse + core estimate, or the cache hit). Means add up
	// where medians do not, so they carry bench.unattributed_share.
	rtMeanUs, selfMeanUs, layersMeanUs float64
}

func pairReads(tr *tracer, sp spec, seqLen int) readPairing {
	rt := tr.byReq("server.request")
	compile, estimate := tr.byReq("xpathest.compile"), tr.byReq("xpathest.estimate")
	parse, hit := tr.byReq("xpath.parse"), tr.byReq("xpathest.cache_hit")
	coreEst, coreOrder := tr.byReq("core.estimate"), tr.byReq("core.estimate_order")
	var self []time.Duration
	var sumRT, sumSelf, sumLayers time.Duration
	for pos, d := range rt {
		if pos >= replayReads {
			continue // not a request of the paired read segment
		}
		k := pos % int64(seqLen)
		var inproc, layers time.Duration
		if sp.HotSet > 0 {
			h, ok := hit[k]
			if !ok {
				continue
			}
			inproc, layers = h, h
		} else {
			c, ok1 := compile[k]
			e, ok2 := estimate[k]
			if !ok1 || !ok2 {
				continue
			}
			inproc = c + e
			layers = parse[k] + coreEst[k] + coreOrder[k]
		}
		self = append(self, d-inproc)
		sumRT += d
		sumSelf += d - inproc
		sumLayers += layers
	}
	n := float64(max(len(self), 1)) * 1e3
	return readPairing{
		selfUs:       medianOf(self) / 1e3,
		rtMeanUs:     float64(sumRT) / n,
		selfMeanUs:   float64(sumSelf) / n,
		layersMeanUs: float64(sumLayers) / n,
	}
}

// meanMs is the mean duration of the named spans, in ms.
func meanMs(tr *tracer, name string) float64 {
	return meanOf(tr.durations(name)) / 1e6
}

func meanOf(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(max(len(ds), 1))
}
