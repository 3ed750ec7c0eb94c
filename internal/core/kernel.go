package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"xpathest/internal/bitset"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
)

// kernel is the summary-resident fast path under the estimator. It
// amortizes, over the lifetime of one (labeling, source) pair, the
// per-query costs the paper's formulas do not account for: fetching a
// tag's (pid, frequency) list, deciding edge compatibility for a
// (pid, pid) pair, and summing a tag's population.
//
// The kernel assumes the source is immutable once the estimator is
// built — the invariant every Source in this repository satisfies
// (exact tables and histograms are both frozen after construction).
//
// Layout: the first estimation builds one columnar snapshot of the
// whole source — every tag's canonical (pid, frequency) list flattened
// into a shared pid-bit arena (stats.Columns) with dense int32 tag ids
// — and publishes it through an atomic pointer; the snapshot is
// immutable from then on. Edge-compatibility is split along the
// PathWitness factorization: verdict(anc, desc) = word containment
// over two arena rows && a per-descendant witness bit, so the memo
// shrank from one 2-bit cell per (anc, desc) pid pair to one bit per
// descendant pid. Witness bitmaps are built eagerly per (ancestor tag,
// descendant tag, axis) under mu, carved out of a shared chunked
// arena, and published copy-on-write like the old pair caches — but
// they are read-only after publication, so the join's inner loop does
// no atomic or map work at all.
type kernel struct {
	lab *pathenc.Labeling
	src Source

	// rootTag is the document root's tag (first tag of path 1), "" when
	// the encoding table is empty; immutable after construction.
	rootTag string

	mu   sync.Mutex // serializes snapshot build and witness misses
	snap atomic.Pointer[snapshot]
	wit  atomic.Pointer[map[witKey][]uint64]

	// witFree is the tail of the current witness-bitmap chunk; bitmaps
	// are carved from it so hundreds of tiny memo allocations coalesce
	// into a few contiguous slabs.
	witFree []uint64 // guarded by mu
}

// span is one tag's contiguous run of snapshot entries.
type span struct {
	base int32 // first global entry index
	n    int32 // entry count
}

// snapshot is the immutable columnar image of one source: all tags'
// canonical entry lists laid out back to back. Global entry index g
// owns arena row cols.Words[g*cols.Stride:], frequency cols.Freqs[g],
// and interned pid cols.Pids[g]; tag t (by dense id) owns the entries
// [spans[t].base, spans[t].base+spans[t].n). Tags are assigned dense
// ids in sorted order and entries follow canonicalEntries order, so
// every float summation downstream is bit-deterministic.
type snapshot struct {
	cols  *stats.Columns
	tagID map[string]int32
	names []string // tag name by dense id
	spans []span   // by dense id

	// sparse entries fall back to pointer containment when the arena
	// would exceed maxArenaWords (cols.Words is then nil).
	sparse bool

	// totals is each tag's summed frequency in entry order — the tag
	// population of clampToTag, precomputed with the identical
	// summation order.
	totals []float64

	// local maps each tag's interned pids to global entry indices for
	// rawFreq's identity fast path.
	local []map[*bitset.Bitset]int32
}

// witKey identifies one witness bitmap: all descendant-pid witness
// bits for a (tag, tag, axis) triple, tags by snapshot dense id.
type witKey struct {
	anc  int32
	desc int32
	axis pathenc.Axis
}

// maxArenaWords caps the flattened pid arena at 16M words (128 MiB):
// a snapshot whose entries × stride exceed it keeps the columnar
// freq/pid columns but skips the bit arena, and containment falls back
// to the interned *Bitset rows — still witness-memoized, never
// unbounded memory. (The cap replaces the old 2^26 pair-cache cap,
// which the witness factorization made obsolete: witness bitmaps cost
// one bit per descendant entry and never need a cap.)
const maxArenaWords = 1 << 24

// witChunkWords sizes the shared chunks witness bitmaps are carved
// from.
const witChunkWords = 1 << 12

// overArenaCap decides the sparse fallback: whether a snapshot of
// `total` entries at `stride` words per row would exceed the arena
// budget.
func overArenaCap(total, stride int) bool {
	return total*stride > maxArenaWords
}

func newKernel(lab *pathenc.Labeling, src Source) *kernel {
	k := &kernel{lab: lab, src: src}
	if lab.Table.NumPaths() > 0 {
		k.rootTag = lab.Table.PathTags(1)[0]
	}
	wit := make(map[witKey][]uint64)
	k.wit.Store(&wit)
	return k
}

// snapshot returns the columnar image, building it on first use. The
// build cost is paid once per kernel (i.e. once per summary load), and
// only by kernels that actually estimate.
func (k *kernel) snapshot() *snapshot {
	if s := k.snap.Load(); s != nil {
		return s
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if s := k.snap.Load(); s != nil {
		return s
	}
	s := buildSnapshot(k.lab, k.src)
	k.snap.Store(s)
	return s
}

func buildSnapshot(lab *pathenc.Labeling, src Source) *snapshot {
	tags := src.Tags()
	width := lab.PidWidth()
	stride := (width + 63) / 64

	entryLists := make([][]stats.PidFreq, len(tags))
	total := 0
	for i, tag := range tags {
		entryLists[i] = canonicalEntries(src.Entries(tag))
		total += len(entryLists[i])
	}

	s := &snapshot{
		tagID:  make(map[string]int32, len(tags)),
		names:  tags,
		spans:  make([]span, len(tags)),
		totals: make([]float64, len(tags)),
		local:  make([]map[*bitset.Bitset]int32, len(tags)),
		sparse: overArenaCap(total, stride),
	}
	s.cols = stats.NewColumns(width, total)
	if s.sparse {
		// Keep the freq/pid columns; drop the word arena.
		s.cols.Words = nil
	}
	g := int32(0)
	for i, tag := range tags {
		s.tagID[tag] = int32(i)
		s.spans[i] = span{base: g, n: int32(len(entryLists[i]))}
		s.local[i] = make(map[*bitset.Bitset]int32, len(entryLists[i]))
		sum := 0.0
		for _, e := range entryLists[i] {
			if s.sparse {
				s.cols.Freqs = append(s.cols.Freqs, e.Freq)
				s.cols.Pids = append(s.cols.Pids, e.Pid)
			} else {
				s.cols.Append(e)
			}
			s.local[i][e.Pid] = g
			sum += e.Freq
			g++
		}
		s.totals[i] = sum
	}
	return s
}

// canonicalEntries copies a source's (pid, frequency) list into a
// fixed pid order. Equivalent sources disagree on list order (exact
// tables keep insertion order, histograms sort by frequency), and the
// estimator's float summations follow snapshot order, so without a
// canonical order two equivalent sources could differ in the last
// bits of an estimate — which would break the bit-determinism the
// differential harness (and any cache keyed on estimates) relies on.
// The copy also keeps the source's own slice unmutated.
func canonicalEntries(src []stats.PidFreq) []stats.PidFreq {
	keys := make([]string, len(src))
	idx := make([]int, len(src))
	for i, e := range src {
		keys[i] = e.Pid.Key()
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	entries := make([]stats.PidFreq, len(src))
	for i, j := range idx {
		entries[i] = src[j]
	}
	return entries
}

// tagSpan returns a tag's entry run, a zero span when the tag has no
// entries.
func (s *snapshot) tagSpan(tag string) span {
	if id, ok := s.tagID[tag]; ok {
		return s.spans[id]
	}
	return span{}
}

// tagTotal returns a tag's summed frequency (its population), 0 for an
// unknown tag — the same value the old per-tag snapshot summed on
// every clamp, precomputed once in the identical order.
func (s *snapshot) tagTotal(tag string) float64 {
	if id, ok := s.tagID[tag]; ok {
		return s.totals[id]
	}
	return 0
}

// rawFreq returns the unfiltered source frequency of a pid under a
// tag, 0 when absent. Canonical pids hit the identity index; an
// equal-bits duplicate falls back to a scan of the tag's rows.
func (s *snapshot) rawFreq(tag string, pid *bitset.Bitset) float64 {
	id, ok := s.tagID[tag]
	if !ok {
		return 0
	}
	if g, ok := s.local[id][pid]; ok {
		return s.cols.Freqs[g]
	}
	sp := s.spans[id]
	for g := sp.base; g < sp.base+sp.n; g++ {
		if s.cols.Pids[g].Equal(pid) {
			return s.cols.Freqs[g]
		}
	}
	return 0
}

// containsAny reports whether entry a's pid contains-or-equals any of
// the entries descs (global indices) — the ancestor-side pruning test.
func (s *snapshot) containsAny(a int32, descs []int32) bool {
	if !s.sparse {
		return bitset.ContainsAnyWords(s.cols.Words, int(a)*s.cols.Stride, s.cols.Stride, descs)
	}
	ap := s.cols.Pids[a]
	for _, d := range descs {
		if ap.ContainsOrEqual(s.cols.Pids[d]) {
			return true
		}
	}
	return false
}

// anyContains reports whether any of the entries ancs (global indices)
// contains-or-equals entry d's pid — the descendant-side pruning test.
func (s *snapshot) anyContains(ancs []int32, d int32) bool {
	if !s.sparse {
		return bitset.AnyContainsWords(s.cols.Words, int(d)*s.cols.Stride, s.cols.Stride, ancs)
	}
	dp := s.cols.Pids[d]
	for _, a := range ancs {
		if s.cols.Pids[a].ContainsOrEqual(dp) {
			return true
		}
	}
	return false
}

// witness returns the witness bitmap of a (tag, tag, axis) triple: bit
// j (within the descendant tag's span) is set iff PathWitness holds
// for descendant entry j, i.e. some root-to-leaf path of its pid
// carries the ancestor tag above the descendant tag at an
// axis-compatible distance. Built eagerly on first use under mu —
// the fill is deterministic, the bitmap immutable after publication.
func (k *kernel) witness(s *snapshot, anc, desc int32, axis pathenc.Axis) []uint64 {
	key := witKey{anc: anc, desc: desc, axis: axis}
	if w, ok := (*k.wit.Load())[key]; ok {
		return w
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	cur := *k.wit.Load()
	if w, ok := cur[key]; ok {
		return w
	}
	sp := s.spans[desc]
	var bits []uint64
	bits, k.witFree = carveWitness(k.witFree, int(sp.n+63)/64)
	ancTag, descTag := s.names[anc], s.names[desc]
	for j := int32(0); j < sp.n; j++ {
		if k.lab.PathWitness(ancTag, descTag, s.cols.Pids[sp.base+j], axis) {
			bits[j>>6] |= 1 << uint(j&63)
		}
	}
	next := make(map[witKey][]uint64, len(cur)+1)
	for k2, v := range cur {
		next[k2] = v
	}
	next[key] = bits
	k.wit.Store(&next)
	return bits
}

// carveWitness carves n words off the front of the free chunk,
// growing it first when it cannot satisfy the request, and returns the
// carved bitmap plus the remaining tail.
func carveWitness(free []uint64, n int) (w, rest []uint64) {
	if n > len(free) {
		size := witChunkWords
		if n > size {
			size = n
		}
		free = make([]uint64, size)
	}
	return free[:n:n], free[n:]
}

// witnessBit reads entry j's bit (j local to the descendant span).
func witnessBit(bits []uint64, j int32) bool {
	return bits[j>>6]&(1<<uint(j&63)) != 0
}
