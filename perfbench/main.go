// Command perfbench is the estimation service's benchmark. It runs the
// real internal/server in-process on loopback, drives it from this
// process with at most two connections, and checks every answer it
// samples bit for bit against an in-process reference pipeline over
// the same document.
//
//	perfbench --workload plays-cold --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// replays the same inputs through each layer's public functions, one
// span per call, and reports the per-layer metrics plus a layer
// report on standard error. The last line of standard output is the
// JSON result. Inputs are generated from --seed alone.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run sets the server up; setup_s is the
// median.
const setups = 7

// readWindow is the length of the windows plays-edit's measured reads
// are cut into; its read metrics come from the best quarter of them
// (see windowFigures).
const readWindow = 2 * time.Second

// coldSegments is the number of segments a cold workload's pool is cut
// into. The reader times each pass over a segment, and the read
// metrics come from the fastest pass of every segment (see
// passFigures).
const coldSegments = 64

// minReadPhase is the shortest read phase a cold workload runs between
// two write windows.
const minReadPhase = 500 * time.Millisecond

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: plays-cold or plays-edit")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	ctx := context.Background()
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, sp, *seed, work)
	} else {
		res, err = runEndToEnd(ctx, sp, *seed, time.Duration(*seconds)*time.Second, work)
	}
	if rmErr := os.RemoveAll(work); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", work, rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.Name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runEndToEnd measures the end-to-end metrics with tracing off. The
// live heap is weighed after the inputs are dropped, with the server
// still holding its state.
func runEndToEnd(ctx context.Context, sp spec, seed int64, measure time.Duration, work string) (result, error) {
	h, res, err := driveEndToEnd(ctx, sp, seed, measure, work)
	if err != nil {
		return result{}, err
	}
	defer h.stop()
	res.Metrics["heap_mb"] = metric{liveHeapMB(), "MB"}
	return res, nil
}

// driveEndToEnd generates the inputs, sets the server up and drives
// the workload's traffic. On success the server is left running.
func driveEndToEnd(ctx context.Context, sp spec, seed int64, measure time.Duration, work string) (*harness, result, error) {
	in, _, want, err := genInputs(sp, seed)
	if err != nil {
		return nil, result{}, err
	}
	items := readItems(sp.Name, in.Pool, want)
	seq := readSequence(sp, items)
	var image []byte
	if sp.Edit {
		if image, err = storeImage(in.XML); err != nil {
			return nil, result{}, err
		}
	}
	logWorkingSet(sp, seed, in)

	var tot tally
	h, setupTimes, storeDir, t, err := setUp(ctx, sp, in.XML, seq, work)
	if err != nil {
		return nil, result{}, err
	}
	tot.add(t)
	// The setup-time values of the hot set, and the store's image of the
	// freshly summarized document, must match the reference.
	var hot []readItem
	if sp.HotSet > 0 {
		hot = seq
	}
	tot.add(h.checkEnd(ctx, hot, storeDir, image))

	_, t = h.readLoop(ctx, seq, len(seq)/2, 0, time.Now().Add(time.Second), nil, nil)
	tot.add(t)
	if t, err = h.warmUp(ctx, seq); err != nil {
		h.stop()
		return nil, result{}, err
	}
	tot.add(t)

	var qps, p50, p90 float64
	var reads int
	var wr writeResult
	if sp.Edit {
		writes := min(2*len(in.Edits), 2*int(measure.Seconds()*sp.WriteRate/2))
		stop := make(chan struct{})
		done := make(chan struct{})
		var rt tally
		t0 := time.Now()
		var ws []window
		go func() {
			defer close(done)
			ws, rt = h.readWindows(ctx, seq, readWindow, stop)
		}()
		wr = h.writeLoop(ctx, in.Edits, writes, sp.WriteRate, t0, nil, "")
		close(stop)
		<-done
		tot.add(rt)
		qps, p50, p90, reads = windowFigures(ws)
	} else {
		// Read and write windows alternate, never overlapping, so both
		// kinds sample the whole run: noise from outside the benchmark
		// comes in bursts of seconds, and a contiguous phase of either
		// kind can sit inside one burst. The writes go to a second server
		// over the same document, so the reads never enter delta and keep
		// one long-lived summary, as on a server that is never written.
		wh, _, v, err := startServer(ctx, newClient(), sp.Name, in.XML, "", seq[0].query)
		if err != nil {
			h.stop()
			return nil, result{}, err
		}
		tot.attempted++
		if math.Float64bits(v) != math.Float64bits(seq[0].want) {
			tot.fail("write server: first estimate %v, reference %v", v, seq[0].want)
		}
		// A write window is one group of rebuildEvery pairs, so each holds
		// one rebuild pair and all carry the same mix of routes. Its writes
		// go back to back: on this idle server a write's latency is its
		// cost. The groups are cycled WriteRounds times, and the windows
		// are spread evenly over the run with a read phase before each.
		// Each write's latency is the least of its rounds, the one least
		// moved by bursts of outside noise, as each pool segment's fastest
		// pass is for the reads. A first, unmeasured pass over group 0
		// warms the write server up and sizes the read phases.
		groups := len(in.Edits) / rebuildEvery
		perWindow := 2 * rebuildEvery
		w0 := time.Now()
		r := wh.writeLoop(ctx, in.Edits[:rebuildEvery], perWindow, 0, w0, nil, "")
		writeDur := time.Since(w0)
		tot.add(r.tally)
		// A run shorter than the one BENCHMARK.json sets sends fewer rounds.
		nw := groups * sp.WriteRounds
		readDur := (measure - time.Duration(nw)*writeDur) / time.Duration(nw)
		for nw > groups && readDur < minReadPhase {
			nw -= groups
			readDur = (measure - time.Duration(nw)*writeDur) / time.Duration(nw)
		}
		if readDur < minReadPhase {
			wh.stop()
			h.stop()
			return nil, result{}, fmt.Errorf("%d write windows of about %v leave no time to read in %v", nw, writeDur, measure)
		}
		pos := 0
		segLen := (len(seq) + coldSegments - 1) / coldSegments
		passes := make([][]window, coldSegments)
		var best []time.Duration // per write of the groups, its least latency
		for i := 0; i < nw; i++ {
			// A read phase reads whole segments until readDur is up.
			for end := time.Now().Add(readDur); time.Now().Before(end); {
				off := pos % len(seq)
				n := min(segLen, len(seq)-off)
				t0 := time.Now()
				lats, t := h.readLoop(ctx, seq, pos, n, time.Time{}, nil, nil)
				passes[off/segLen] = append(passes[off/segLen], window{lats: lats, dur: time.Since(t0)})
				tot.add(t)
				pos += n
			}
			g := i % groups
			r := wh.writeLoop(ctx, in.Edits[g*rebuildEvery:(g+1)*rebuildEvery], perWindow, 0, time.Now(), nil, "")
			tot.add(r.tally)
			for j, l := range r.lat {
				if k := g*perWindow + j; i < groups {
					best = append(best, l)
				} else {
					best[k] = min(best[k], l)
				}
			}
			wr.fastOps += r.fastOps
			wr.allOps += r.allOps
		}
		wr.lat = best
		qps, p50, p90, reads = passFigures(passes)
		// Once the last inverse landed, the written server must answer
		// as the reference again.
		tot.add(wh.checkEnd(ctx, checkSet(sp, items), "", nil))
		wh.stop()
	}
	tot.add(wr.tally)
	tot.add(h.checkEnd(ctx, checkSet(sp, items), storeDir, image))

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d measured reads, %d measured writes (%d fast of %d ops sent), attempted %d, failed %d, error_share %.4g\n",
		sp.Name, seed, reads, len(wr.lat), wr.fastOps, wr.allOps, tot.attempted, tot.failed, ratio(int64(tot.failed), int64(tot.attempted)))
	// The write metrics cover every write (on the cold workloads, every
	// distinct write at its best round): a write window holds too few
	// edit locations to stand for the workload on its own.
	dl := durationsMs(wr.lat)
	return h, result{
		Correct:   tot.failed == 0,
		Attempted: tot.attempted,
		Failed:    tot.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setupTimes), "s"},
			"estimate_qps":    {qps, "1/s"},
			"estimate_p50_us": {p50, "us"},
			"estimate_p90_us": {p90, "us"},
			"delta_p50_ms":    {quantile(dl, 0.50), "ms"},
			"delta_p90_ms":    {quantile(dl, 0.90), "ms"},
		},
	}, nil
}

// setUp starts the server setups times, each from scratch with its own
// empty store directory, and keeps the last one running. The first
// estimate of each setup is compared with the reference.
func setUp(ctx context.Context, sp spec, xml []byte, seq []readItem, work string) (*harness, []float64, string, tally, error) {
	var t tally
	var times []float64
	client := newClient()
	for k := 0; k < setups; k++ {
		dir := ""
		if sp.Edit {
			dir = filepath.Join(work, fmt.Sprintf("store-%d", k))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, nil, "", t, err
			}
		}
		h, d, v, err := startServer(ctx, client, sp.Name, xml, dir, seq[0].query)
		if err != nil {
			return nil, nil, "", t, err
		}
		t.attempted++
		if math.Float64bits(v) != math.Float64bits(seq[0].want) {
			t.fail("setup %d: first estimate %v, reference %v", k, v, seq[0].want)
		}
		times = append(times, d.Seconds())
		if k == setups-1 {
			return h, times, dir, t, nil
		}
		h.stop()
	}
	panic("unreachable")
}

// readSequence is the order the reader cycles through: the whole pool
// on the cold workloads, the hot set on plays-edit.
func readSequence(sp spec, items []readItem) []readItem {
	if sp.HotSet > 0 && sp.HotSet < len(items) {
		return items[:sp.HotSet]
	}
	return items
}

// checkSet is what the end-of-run check re-queries.
func checkSet(sp spec, items []readItem) []readItem {
	return items[:min(len(items), max(sp.HotSet, 64))]
}

// liveHeapMB is the live Go heap, in MB, after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// logWorkingSet prints the working-set record of the run: the pool
// against the server's default cache capacities.
func logWorkingSet(sp spec, seed int64, in *inputs) {
	rebuild := 0
	for _, e := range in.Edits {
		if e.Rebuild {
			rebuild++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: document %d bytes; pool %d queries (%.0f%% order axes), result-cache footprint %d bytes against %d, plan cache %d entries; %d edit pairs (%d rebuild)\n",
		sp.Name, seed, len(in.XML), len(in.Pool), 100*orderShare(in.Pool), poolCost(in.Pool, sp.Name), defaultResultCacheBytes, defaultPlanCacheEntries, len(in.Edits), rebuild)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile is the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
