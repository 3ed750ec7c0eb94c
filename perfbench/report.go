package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// unattributedFlag is the share of the end-to-end median left to no
// layer beyond which the layer report flags the run.
const unattributedFlag = 0.10

// layerMetrics derives the per-layer metrics from the spans and the
// server phase, and prints the layer report: each layer's median and
// its share of the end-to-end median of its path.
func layerMetrics(tr *tracer, sp spec, seed int64, in *inputs, seqLen int, sv serverTrace, m map[string]metric) {
	us := func(name string) float64 { return medianMs(tr, name) * 1e3 }
	ms := func(name string) float64 { return medianMs(tr, name) }

	// Read path.
	pr := pairReads(tr, sp, seqLen)
	selfUs := pr.selfUs
	estimateUs := medianOf(append(tr.durations("core.estimate"), tr.durations("core.estimate_order")...)) / 1e3
	m["server.self_us"] = metric{selfUs, "us"}
	m["xpathest.compile_us"] = metric{us("xpathest.compile"), "us"}
	m["xpath.parse_us"] = metric{us("xpath.parse"), "us"}
	m["xpath.tree_us"] = metric{us("xpath.tree"), "us"}
	m["core.join_us"] = metric{us("core.join"), "us"}
	m["core.estimate_us"] = metric{us("core.estimate"), "us"}
	m["core.estimate_order_us"] = metric{us("core.estimate_order"), "us"}
	m["core.snapshot_ms"] = metric{ms("core.snapshot"), "ms"}
	m["xpathest.cache_hit_ns"] = metric{medianMs(tr, "xpathest.cache_hit") * 1e6, "ns"}
	plan := sv.after.PlanHits - sv.before.PlanHits
	planAll := plan + sv.after.PlanMisses - sv.before.PlanMisses
	res := sv.after.ResHits - sv.before.ResHits
	resAll := res + sv.after.ResMisses - sv.before.ResMisses
	m["server.plan_cache_hit_ratio"] = metric{ratio(plan, planAll), "ratio"}
	m["server.result_cache_hit_ratio"] = metric{ratio(res, resAll), "ratio"}
	m["server.result_cache_evictions"] = metric{float64(sv.after.ResEvicts - sv.before.ResEvicts), "count"}

	// Write path. The server's /delta spans of the pairs the in-process
	// replay applied too, split by the route of their pair.
	var fastRT, rebuildRT []time.Duration
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "server.delta" && s.End > 0 && s.Req/2 < replayPairs {
			if in.Edits[s.Req/2].Rebuild {
				rebuildRT = append(rebuildRT, s.End-s.Start)
			} else {
				fastRT = append(fastRT, s.End-s.Start)
			}
		}
	}
	tr.mu.Unlock()
	m["xpathest.apply_fast_ms"] = metric{ms("xpathest.apply_fast"), "ms"}
	m["xpathest.apply_rebuild_ms"] = metric{ms("xpathest.apply_rebuild"), "ms"}
	m["delta.apply_fast_ms"] = metric{ms("delta.apply_fast"), "ms"}
	m["delta.apply_rebuild_ms"] = metric{ms("delta.apply_rebuild"), "ms"}
	m["eval.new_ms"] = metric{ms("eval.new"), "ms"}
	m["delta.fast_share"] = metric{ratio(int64(sv.writes.fastOps), int64(sv.writes.allOps)), "ratio"}
	m["summarystore.save_ms"] = metric{ms("summarystore.save"), "ms"}
	m["summarystore.bytes_per_delta"] = metric{tr.medianCount("summarystore.bytes_per_delta"), "bytes"}

	// Build chain.
	for _, name := range []string{"xmltree.parse", "pathenc.build", "stats.collect", "histogram.build", "pidtree.build", "summaryio.encode", "summaryio.decode", "summarystore.load"} {
		m[name+"_ms"] = metric{ms(name), "ms"}
	}
	m["summaryio.bytes"] = metric{tr.medianCount("summaryio.bytes"), "bytes"}

	// Validity of the run.
	m["bench.gen_late_ms"] = metric{medianOf(sv.writes.late) / 1e6, "ms"}
	m["bench.trace_overhead"] = metric{sv.tracedUs/sv.untracedUs - 1, "ratio"}
	// The unattributed share compares means, which add up: the read
	// path's round trip against server self time plus the layer spans
	// of the same inputs, the write path's fast-route round trip against
	// decode + Summary.Apply (+ the store save, where the server has a
	// store) of the same pairs.
	readParts := pr.selfMeanUs + pr.layersMeanUs
	readPartsText := "self + xpath.parse + core estimate"
	if sp.HotSet > 0 {
		readPartsText = "self + cache hit"
	}
	readUnattributed := 1 - readParts/pr.rtMeanUs
	fastWholeMs := medianOf(fastRT) / 1e6
	fastMeanMs := meanOf(fastRT) / 1e6
	writeParts := meanMs(tr, "xpathest.decode") + meanMs(tr, "xpathest.apply_fast")
	writePartsText := "decode + apply_fast"
	if sp.Edit {
		writeParts += meanMs(tr, "summarystore.save")
		writePartsText += " + save"
	}
	writeUnattributed := 1 - writeParts/fastMeanMs
	// The workload's primary path carries the metric: the write path
	// where writes run beside reads, the read path otherwise.
	unattributed := readUnattributed
	if sp.Edit {
		unattributed = writeUnattributed
	}
	m["bench.unattributed_share"] = metric{unattributed, "ratio"}

	var b strings.Builder
	fmt.Fprintf(&b, "layer report: %s seed %d\n", sp.Name, seed)
	row := func(name string, v float64, unit string, whole float64) {
		fmt.Fprintf(&b, "    %-32s %12.4g %-5s %6.1f%%\n", name, v, unit, 100*v/whole)
	}
	fmt.Fprintf(&b, "  read: /estimate round trip median %.4g us traced, %.4g us untraced (bench.trace_overhead %+.3f)\n", sv.tracedUs, sv.untracedUs, sv.tracedUs/sv.untracedUs-1)
	row("server.self_us", selfUs, "us", sv.tracedUs)
	row("xpathest.compile_us", us("xpathest.compile"), "us", sv.tracedUs)
	row("  xpath.parse_us", us("xpath.parse"), "us", sv.tracedUs)
	row("xpathest.estimate_us", us("xpathest.estimate"), "us", sv.tracedUs)
	row("  core.estimate (all) us", estimateUs, "us", sv.tracedUs)
	row("    xpath.tree_us", us("xpath.tree"), "us", sv.tracedUs)
	row("    core.join_us", us("core.join"), "us", sv.tracedUs)
	row("    core.estimate_us", us("core.estimate"), "us", sv.tracedUs)
	row("    core.estimate_order_us", us("core.estimate_order"), "us", sv.tracedUs)
	row("xpathest.cache_hit_us", us("xpathest.cache_hit"), "us", sv.tracedUs)
	fmt.Fprintf(&b, "    unattributed (1 - mean(%s) / mean round trip): %.3f%s\n", readPartsText, readUnattributed, flagged(readUnattributed))
	fmt.Fprintf(&b, "    caches over the traced traffic: plan hit ratio %.4f, result hit ratio %.4f, result evictions %d\n",
		ratio(plan, planAll), ratio(res, resAll), sv.after.ResEvicts-sv.before.ResEvicts)
	fmt.Fprintf(&b, "  write: /delta round trip median %.4g ms fast route (%d writes), %.4g ms rebuild route (%d writes); writer lateness median %.4g ms\n",
		fastWholeMs, len(fastRT), medianOf(rebuildRT)/1e6, len(rebuildRT), medianOf(sv.writes.late)/1e6)
	row("xpathest.decode_ms", ms("xpathest.decode"), "ms", fastWholeMs)
	row("xpathest.apply_fast_ms", ms("xpathest.apply_fast"), "ms", fastWholeMs)
	row("  delta.apply_fast_ms", ms("delta.apply_fast"), "ms", fastWholeMs)
	row("  eval.new_ms", ms("eval.new"), "ms", fastWholeMs)
	row("summarystore.save_ms", ms("summarystore.save"), "ms", fastWholeMs)
	row("xpathest.apply_rebuild_ms", ms("xpathest.apply_rebuild"), "ms", medianOf(rebuildRT)/1e6)
	row("  delta.apply_rebuild_ms", ms("delta.apply_rebuild"), "ms", medianOf(rebuildRT)/1e6)
	fmt.Fprintf(&b, "    unattributed (1 - mean(%s) / mean fast round trip): %.3f%s\n", writePartsText, writeUnattributed, flagged(writeUnattributed))
	setupMs := float64(sv.setup) / 1e6
	fmt.Fprintf(&b, "  build: server set-up %.4g ms (server.New to first estimate)\n", setupMs)
	for _, name := range []string{"xmltree.parse", "pathenc.build", "stats.collect", "histogram.build", "pidtree.build", "core.snapshot", "summaryio.encode", "summaryio.decode", "summarystore.save", "summarystore.load"} {
		row(name+"_ms", ms(name), "ms", setupMs)
	}
	fmt.Fprint(os.Stderr, b.String())
}

func flagged(share float64) string {
	if math.Abs(share) > unattributedFlag {
		return fmt.Sprintf("  FLAG: parts and whole disagree by more than %.0f%%", 100*unattributedFlag)
	}
	return ""
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
