package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"xpathest/internal/server"
)

// harness is one in-process server on loopback and the client that
// drives it. The transport keeps at most two connections: the reader
// and, on workloads that write, the writer.
type harness struct {
	srv    *server.Server
	client *http.Client
	base   string
	name   string // the summary's registry name

	// writes is a sequence count the writer bumps before sending each
	// write and again once its reply arrived: odd while a write is in
	// flight. Writes alternate op and inverse, so the document is in its
	// original state exactly when writes%4 == 0.
	writes atomic.Int64
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}}
}

// startServer runs server.New with the default config apart from Addr
// and, when storeDir is set, SummaryDir, then POSTs the document to
// /summarize and waits for the first successful /estimate of probe.
// The returned duration is the set-up time: server.New until that
// estimate, lazy kernel snapshot included.
func startServer(ctx context.Context, client *http.Client, name string, xml []byte, storeDir, probe string) (*harness, time.Duration, float64, error) {
	cfg := server.Config{Addr: "127.0.0.1:0", SummaryDir: storeDir}
	t0 := time.Now()
	srv, err := server.New(ctx, cfg)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("server.New: %w", err)
	}
	if err := srv.Start(); err != nil {
		return nil, 0, 0, fmt.Errorf("server start: %w", err)
	}
	h := &harness{srv: srv, client: client, base: "http://" + srv.Addr(), name: name}
	body, code, err := h.do(ctx, http.MethodPost, "/summarize?name="+url.QueryEscape(name), xml)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/summarize: status %d: %s", code, body)
	}
	if err != nil {
		h.stop()
		return nil, 0, 0, err
	}
	v, err := h.estimate(ctx, estimateURL(name, probe))
	if err != nil {
		h.stop()
		return nil, 0, 0, fmt.Errorf("first estimate: %w", err)
	}
	return h, time.Since(t0), v, nil
}

// stop shuts the server down and waits for its connections to drain.
func (h *harness) stop() {
	h.client.CloseIdleConnections()
	if err := h.srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
	}
}

// do sends one request and returns the body and status.
func (h *harness) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

func estimateURL(name, q string) string {
	return "/estimate?summary=" + url.QueryEscape(name) + "&q=" + url.QueryEscape(q)
}

// estimate sends one /estimate and decodes its value. A transport
// error, a non-200 status or a fallback answer is an error.
func (h *harness) estimate(ctx context.Context, path string) (float64, error) {
	body, code, err := h.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", code, body)
	}
	var r struct {
		Estimate float64 `json:"estimate"`
		Fallback bool    `json:"fallback"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decoding estimate: %w", err)
	}
	if r.Fallback {
		return 0, fmt.Errorf("fallback answer: %s", body)
	}
	return r.Estimate, nil
}

// health returns the cache counters of GET /healthz.
type health struct {
	PlanHits   int64 `json:"plan_cache_hits"`
	PlanMisses int64 `json:"plan_cache_misses"`
	ResHits    int64 `json:"result_cache_hits"`
	ResMisses  int64 `json:"result_cache_misses"`
	ResEvicts  int64 `json:"result_cache_evictions"`
}

func (h *harness) health(ctx context.Context) (health, error) {
	body, code, err := h.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return health{}, err
	}
	if code != http.StatusOK {
		return health{}, fmt.Errorf("/healthz: status %d", code)
	}
	var hz health
	if err := json.Unmarshal(body, &hz); err != nil {
		return health{}, fmt.Errorf("decoding /healthz: %w", err)
	}
	return hz, nil
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int
}

// fail counts one failed operation and logs why; only the first
// failures of a run are logged.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if failuresLogged.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: failure: "+format+"\n", args...)
	}
}

var failuresLogged atomic.Int32

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// checkEvery is the stride of the bit-identity check: every
// checkEvery-th /estimate reply is decoded and compared by Float64bits
// // against the reference. A reply that may come from an edited
// document (a write pair was open or a write landed while the read
// was in flight) cannot be compared; the check then moves to the next
// read that can.
const checkEvery = 200

// readLoop is one closed-loop client over seq: it sends the estimate
// at seq[(start+i) % len(seq)] for i = 0, 1, ... until n requests were
// sent (n <= 0: no count limit), until passes (zero: no deadline) or
// stop is closed (nil: never), and returns the round-trip time of
// each. When tr is set, each request is a span "server.request" whose
// Req is its sequence position.
func (h *harness) readLoop(ctx context.Context, seq []readItem, start, n int, until time.Time, stop <-chan struct{}, tr *tracer) ([]time.Duration, tally) {
	capacity := 1 << 10
	if n > 0 {
		capacity = n
	}
	lats := make([]time.Duration, 0, capacity)
	var t tally
	var buf bytes.Buffer
	checkDue := false
	for i := 0; n <= 0 || i < n; i++ {
		if closed(stop) || (!until.IsZero() && !time.Now().Before(until)) {
			return lats, t
		}
		pos := start + i
		it := seq[pos%len(seq)]
		t.attempted++
		checkDue = checkDue || pos%checkEvery == 0
		w0 := h.writes.Load()
		t0 := time.Now()
		code, err := h.get(ctx, it.path, &buf)
		t1 := time.Now()
		original := w0%4 == 0 && h.writes.Load() == w0
		lats = append(lats, t1.Sub(t0))
		tr.record("server.request", t0, t1, -1, int64(pos))
		if err != nil || code != http.StatusOK {
			t.fail("GET %s: status %d, error %v", it.query, code, err)
			continue
		}
		if checkDue && original {
			checkDue = false
			var r struct {
				Estimate float64 `json:"estimate"`
				Fallback bool    `json:"fallback"`
			}
			if json.Unmarshal(buf.Bytes(), &r) != nil || r.Fallback || math.Float64bits(r.Estimate) != math.Float64bits(it.want) {
				t.fail("GET %s: answer %s, reference %v", it.query, bytes.TrimSpace(buf.Bytes()), it.want)
			}
		} else if bytes.Contains(buf.Bytes(), []byte(`"fallback":true`)) {
			t.fail("GET %s: fallback answer", it.query)
		}
	}
	return lats, t
}

// window is one timed stretch of reads: a time window on plays-edit, a
// pass over a pool segment on the cold workloads.
type window struct {
	lats []time.Duration
	dur  time.Duration
}

// readWindows runs readLoop over seq from its start in windows of
// length w until stop is closed. A final window shorter than w/2 is
// dropped from the result but not from the tally.
func (h *harness) readWindows(ctx context.Context, seq []readItem, w time.Duration, stop <-chan struct{}) ([]window, tally) {
	var ws []window
	var t tally
	pos := 0
	for {
		t0 := time.Now()
		lats, tt := h.readLoop(ctx, seq, pos, 0, t0.Add(w), stop, nil)
		t.add(tt)
		pos += len(lats)
		if d := time.Since(t0); d >= w/2 || len(ws) == 0 {
			ws = append(ws, window{lats: lats, dur: d})
		}
		if closed(stop) {
			return ws, t
		}
	}
}

// windowFigures returns the read metrics of a phase from its windows:
// throughput, p50 and p90 latency (in microseconds) from the best
// quarter of the windows — the 75th percentile of the windows'
// throughputs, the 25th percentile of their latency percentiles — and
// the number of reads. Noise from outside the benchmark (CPU taken by
// other tenants of the machine, which arrives in bursts of seconds)
// only ever slows a window down, so the best quarter is the estimate
// least moved by it. The tail reported is p90, not p99: under such
// bursts a window's p99 moved by 2–5x and its p90 by a fifth. Each
// window's figures, p99 included, are logged on standard error.
func windowFigures(ws []window) (qps, p50, p90 float64, reads int) {
	var q, a, b []float64
	var log strings.Builder
	for _, w := range ws {
		ls := durationsMs(w.lats)
		q = append(q, float64(len(w.lats))/w.dur.Seconds())
		a = append(a, quantile(ls, 0.50)*1e3)
		b = append(b, quantile(ls, 0.90)*1e3)
		reads += len(w.lats)
		fmt.Fprintf(&log, " %.0f/%.0f/%.0f/%.0f", q[len(q)-1], a[len(a)-1], b[len(b)-1], quantile(ls, 0.99)*1e3)
	}
	fmt.Fprintf(os.Stderr, "perfbench: read windows (qps/p50/p90/p99 us):%s\n", log.String())
	sort.Float64s(q)
	sort.Float64s(a)
	sort.Float64s(b)
	return quantile(q, 0.75), quantile(a, 0.25), quantile(b, 0.25), reads
}

// passFigures returns the read metrics of a cold workload from the
// timed passes over each segment of its pool: throughput, p50 and p90
// latency (in microseconds) over the fastest pass of every segment,
// and the number of reads in all passes. A segment's reads are the
// same on every pass, so its fastest pass is the one least moved by
// outside noise; together the fastest passes cover the whole pool
// once, so unlike the best of a run's time windows they do not favour
// the pool's cheaper queries. Each segment's passes and fastest
// throughput are logged on standard error.
func passFigures(passes [][]window) (qps, p50, p90 float64, reads int) {
	var lats []time.Duration
	var dur time.Duration
	var log strings.Builder
	for _, ps := range passes {
		if len(ps) == 0 {
			continue
		}
		f := ps[0]
		for _, p := range ps {
			reads += len(p.lats)
			if p.dur < f.dur {
				f = p
			}
		}
		lats = append(lats, f.lats...)
		dur += f.dur
		fmt.Fprintf(&log, " %d/%.0f", len(ps), float64(len(f.lats))/f.dur.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: pool segments (passes/fastest qps):%s\n", log.String())
	ls := durationsMs(lats)
	return float64(len(lats)) / dur.Seconds(), quantile(ls, 0.50) * 1e3, quantile(ls, 0.90) * 1e3, reads
}

// closed reports whether c is closed; a nil channel never is.
func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// warmUp sends the whole read sequence once through /estimate/batch,
// comparing every value with the reference, so the kernel's lazily
// built state (the columnar snapshot and the witness memo) is complete
// before measuring, as on a server that has run this traffic for a
// while. The pass leaves the sequence's last queries in the result
// cache, so a cold pool then cycled from position 0 still misses on
// every request.
func (h *harness) warmUp(ctx context.Context, seq []readItem) (tally, error) {
	var t tally
	const chunk = 1024 // guard.DefaultLimits().MaxBatchQueries
	for lo := 0; lo < len(seq); lo += chunk {
		part := seq[lo:min(lo+chunk, len(seq))]
		req := struct {
			Summary string   `json:"summary"`
			Queries []string `json:"queries"`
		}{Summary: h.name}
		for _, it := range part {
			req.Queries = append(req.Queries, it.query)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return t, err
		}
		out, code, err := h.do(ctx, http.MethodPost, "/estimate/batch", body)
		if err != nil || code != http.StatusOK {
			return t, fmt.Errorf("warm-up batch: status %d, error %v: %s", code, err, out)
		}
		var resp struct {
			Results []struct {
				Estimate float64 `json:"estimate"`
				Error    string  `json:"error"`
				Fallback bool    `json:"fallback"`
			} `json:"results"`
		}
		if err := json.Unmarshal(out, &resp); err != nil || len(resp.Results) != len(part) {
			return t, fmt.Errorf("warm-up batch: bad reply (%v)", err)
		}
		for i, r := range resp.Results {
			t.attempted++
			if r.Error != "" || r.Fallback || math.Float64bits(r.Estimate) != math.Float64bits(part[i].want) {
				t.fail("warm-up %s: answer %v (error %q), reference %v", part[i].query, r.Estimate, r.Error, part[i].want)
			}
		}
	}
	return t, nil
}

// get sends a GET and reads the body into buf.
func (h *harness) get(ctx context.Context, path string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// readItem is one read request: its path and the reference value.
type readItem struct {
	query string
	path  string
	want  float64
}

func readItems(name string, pool []string, want []float64) []readItem {
	out := make([]readItem, len(pool))
	for i, q := range pool {
		out[i] = readItem{query: q, path: estimateURL(name, q), want: want[i]}
	}
	return out
}

// writeResult is what the open-loop writer measured.
type writeResult struct {
	lat, late       []time.Duration // from due time; send time minus due time
	fastOps, allOps int
	tally
}

// writeLoop is the writer. With a positive rate it runs open-loop:
// write i is due at t0 + i/rate and sent as soon as the previous write
// returned, so a slow write delays the ones behind it and their
// latency, timed from the due time, shows it. With rate 0 it sends the
// writes back to back and times each from its send. Writes alternate
// op and inverse of each pair. When tr is set, each write is a span
// with the given name whose Req is its index.
func (h *harness) writeLoop(ctx context.Context, edits []editPair, writes int, rate float64, t0 time.Time, tr *tracer, spanName string) writeResult {
	var res writeResult
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	path := "/delta/" + url.PathEscape(h.name)
	for i := 0; i < writes; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if rate <= 0 {
			due = time.Now()
		} else if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ep := edits[i/2]
		body := ep.OpWire
		if i%2 == 1 {
			body = ep.InverseWire
		}
		res.attempted++
		h.writes.Add(1)
		out, code, err := h.do(ctx, http.MethodPost, path, body)
		h.writes.Add(1)
		done := time.Now()
		res.lat = append(res.lat, done.Sub(due))
		res.late = append(res.late, sent.Sub(due))
		tr.record(spanName, sent, done, -1, int64(i))
		if err != nil || code != http.StatusOK {
			res.fail("POST /delta write %d: status %d, error %v: %s", i, code, err, out)
			continue
		}
		var r struct {
			Ops     int `json:"ops"`
			FastOps int `json:"fast_ops"`
		}
		if json.Unmarshal(out, &r) != nil || r.Ops != 1 {
			res.fail("POST /delta write %d: reply %s", i, out)
			continue
		}
		res.fastOps += r.FastOps
		res.allOps += r.Ops
	}
	return res
}

// checkEnd re-queries items after the last inverse write landed and
// compares each value bit for bit with the reference; with a store it
// also compares the persisted summary with a fresh build of the
// original document. It returns one attempt per comparison.
func (h *harness) checkEnd(ctx context.Context, items []readItem, storeDir string, image []byte) tally {
	var t tally
	for _, it := range items {
		t.attempted++
		v, err := h.estimate(ctx, it.path)
		if err != nil || math.Float64bits(v) != math.Float64bits(it.want) {
			t.fail("check %s: answer %v, reference %v, error %v", it.query, v, it.want, err)
		}
	}
	if storeDir != "" {
		t.attempted++
		got, err := os.ReadFile(filepath.Join(storeDir, h.name+".xpsum"))
		if err != nil || !bytes.Equal(got, image) {
			t.fail("persisted summary differs from a fresh build of the document (read error %v)", err)
		}
	}
	return t
}
