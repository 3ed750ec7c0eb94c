// Package pathenc implements the path encoding scheme of Section 2 of
// the paper (originally from Li/Lee/Hsu, "A Path-Based Labeling Scheme
// for Efficient Structural Join", XSym 2005).
//
// Every distinct root-to-leaf tag path of a document is assigned an
// integer encoding (1-based, in order of first occurrence in document
// order) and recorded in an encoding table. Every element node is then
// labeled with a path id — a bit sequence whose width is the number of
// distinct paths:
//
//   - a leaf element sets exactly the bit of its root-to-leaf path;
//   - an internal element's path id is the bit-or of its children's.
//
// Panic policy: Build operates on documents that may ultimately come
// from untrusted input, so labeling failures (a leaf path missing from
// the encoding table, indicating a document mutated mid-build) are
// returned as errors; MustBuild panics on them and is for in-process
// trees (tests, generators) only. The remaining panics in this package
// — Path/PathTags encoding-range checks — guard programmer-error
// invariants: every encoding handed to them is produced by this
// package and validated at construction time.
//
// Path ids support the containment tests of Section 2 that the path
// join (Section 4) prunes with: strict containment of PidY by PidX
// guarantees every X-labeled node has a Y descendant, while equality
// signals at least one ancestor–descendant pair whose direction and
// distance are resolved by looking tag positions up in the encoding
// table.
package pathenc

import (
	"fmt"
	"strings"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
	"xpathest/internal/xmltree"
)

// Table is the encoding table: the bidirectional mapping between
// distinct root-to-leaf tag paths and their integer encodings
// (Figure 1(b)).
type Table struct {
	paths    []string   // paths[i-1] is the path with encoding i
	pathTags [][]string // split form of paths
	byPath   map[string]int

	// tagIDs interns every tag occurring on any path into a dense
	// 1-based id; pathTagIDs mirrors pathTags with tags replaced by
	// their ids. The witness scans on the join's hot path compare
	// these int32s instead of strings. Built by internTags once the
	// path set is complete, read-only afterwards.
	tagIDs     map[string]int32
	pathTagIDs [][]int32
}

// internTags builds the dense tag-id view of pathTags. Both table
// constructors call it after the last path is added.
func (t *Table) internTags() {
	t.tagIDs = make(map[string]int32)
	t.pathTagIDs = make([][]int32, len(t.pathTags))
	for i, tags := range t.pathTags {
		ids := make([]int32, len(tags))
		for j, tag := range tags {
			id, ok := t.tagIDs[tag]
			if !ok {
				id = int32(len(t.tagIDs)) + 1
				t.tagIDs[tag] = id
			}
			ids[j] = id
		}
		t.pathTagIDs[i] = ids
	}
}

// NumPaths returns the number of distinct root-to-leaf paths — the
// "#(Dist Paths)" column of Table 3 and the path-id width.
func (t *Table) NumPaths() int { return len(t.paths) }

// Path returns the slash-joined path with the given encoding (1-based).
func (t *Table) Path(enc int) string {
	if enc < 1 || enc > len(t.paths) {
		//lint:ignore panicpolicy documented programmer-error invariant: encodings come from this table, an out-of-range value mirrors a slice-index bug
		panic(fmt.Sprintf("pathenc: encoding %d out of range [1,%d]", enc, len(t.paths)))
	}
	return t.paths[enc-1]
}

// PathTags returns the tag sequence of the path with the given
// encoding. The returned slice must not be modified.
func (t *Table) PathTags(enc int) []string {
	if enc < 1 || enc > len(t.pathTags) {
		//lint:ignore panicpolicy documented programmer-error invariant: encodings come from this table, an out-of-range value mirrors a slice-index bug
		panic(fmt.Sprintf("pathenc: encoding %d out of range [1,%d]", enc, len(t.pathTags)))
	}
	return t.pathTags[enc-1]
}

// Encoding returns the encoding of a path string, or 0 if the path
// does not occur in the document.
func (t *Table) Encoding(path string) int { return t.byPath[path] }

// SizeBytes estimates the storage of the encoding table: each path is
// stored once as its tag string plus a 2-byte encoding. This is the
// "EncTab" column of Table 3.
func (t *Table) SizeBytes() int {
	n := 0
	for _, p := range t.paths {
		n += len(p) + 2
	}
	return n
}

// Relationship describes how two tags relate on a concrete
// root-to-leaf path.
type Relationship int

const (
	// RelNone means the two tags do not both occur on the path in the
	// required order.
	RelNone Relationship = iota
	// RelAncestor means the first tag occurs strictly above the second
	// somewhere on the path, at distance ≥ 2.
	RelAncestor
	// RelParent means the first tag occurs immediately above the
	// second somewhere on the path.
	RelParent
)

// TagRelationship reports the closest relationship between ancTag and
// descTag on the path with the given encoding. With recursive tags
// (e.g. XMark's parlist inside parlist) a tag may occur several times;
// RelParent wins over RelAncestor if any occurrence pair is adjacent.
func (t *Table) TagRelationship(enc int, ancTag, descTag string) Relationship {
	tags := t.PathTags(enc)
	rel := RelNone
	for i, tag := range tags {
		if tag != ancTag {
			continue
		}
		for j := i + 1; j < len(tags); j++ {
			if tags[j] != descTag {
				continue
			}
			if j == i+1 {
				return RelParent
			}
			rel = RelAncestor
		}
	}
	return rel
}

// Labeling is the complete path-id labeling of one document: the
// encoding table plus a path id for every element, with the distinct
// ids interned so identical bit sequences share storage (the path id
// table of Figure 1(c)).
type Labeling struct {
	Table *Table

	doc  *xmltree.Document
	pids []*bitset.Bitset // indexed by node Ord; interned
	// distinct lists the interned pids in first-interning order — the
	// post-order of Build's bottom-up pass — which is the dense-id
	// order the delta alignment guard and summaryio rely on.
	distinct []*bitset.Bitset
	index    map[string]int // bitset key -> index into distinct

	// denseID maps each canonical interned instance to its position in
	// distinct. Because interning makes identical bit sequences share one
	// instance, pointer identity is a sound key, and hot-path lookups
	// avoid the Bitset.Key() string allocation entirely. Built alongside
	// index and read-only once labeling construction finishes, so
	// concurrent estimator reads need no locking.
	denseID map[*bitset.Bitset]int32
}

// NewTable builds an encoding table directly from path strings in
// encoding order (paths[0] gets encoding 1). It is the deserialization
// entry point for summaries shipped without their document.
func NewTable(paths []string) (*Table, error) {
	t := &Table{byPath: make(map[string]int, len(paths))}
	for i, p := range paths {
		if p == "" {
			return nil, fmt.Errorf("pathenc: empty path at encoding %d: %w", i+1, guard.ErrInvalidArgument)
		}
		if _, dup := t.byPath[p]; dup {
			return nil, fmt.Errorf("pathenc: duplicate path %q: %w", p, guard.ErrInvalidArgument)
		}
		t.add(p)
	}
	t.internTags()
	return t, nil
}

// add appends path p with the next encoding and returns that encoding.
func (t *Table) add(p string) int {
	t.paths = append(t.paths, p)
	t.pathTags = append(t.pathTags, strings.Split(p, "/"))
	t.byPath[p] = len(t.paths)
	return len(t.paths)
}

// EstimationLabeling wraps an encoding table and the document's
// distinct path ids into a Labeling usable for estimation only: the
// per-element labels are absent (there is no document), but everything
// the estimator consults — the encoding table, containment tests and
// anchor segments — works. distinct may be nil when only join logic is
// needed.
func EstimationLabeling(t *Table, distinct []*bitset.Bitset) *Labeling {
	l := &Labeling{
		Table:   t,
		index:   make(map[string]int, len(distinct)),
		denseID: make(map[*bitset.Bitset]int32, len(distinct)),
	}
	for _, p := range distinct {
		l.intern(p)
	}
	return l
}

// Build labels every element of doc with its path id. It makes two
// walks, neither of which allocates per element. The first collects
// the distinct root-to-leaf paths in first-occurrence document order
// by descending a trie of child tags, so a path string is built once
// per distinct path, and records each leaf's encoding by Ord. The
// second (bottom-up, see assign) assigns the path ids. An
// inconsistency between the walks (possible only if the tree is
// mutated concurrently) is reported as an error, never a panic.
func Build(doc *xmltree.Document) (*Labeling, error) {
	b := &builder{
		tbl:  &Table{byPath: make(map[string]int)},
		encs: make([]int32, doc.NumElements()),
	}
	if doc.Root != nil {
		if err := b.collect(doc.Root, &pathTrie{}); err != nil {
			return nil, err
		}
	}
	b.tbl.internTags()

	b.lab = &Labeling{
		Table:   b.tbl,
		doc:     doc,
		pids:    make([]*bitset.Bitset, len(b.encs)),
		index:   make(map[string]int),
		denseID: make(map[*bitset.Bitset]int32),
	}
	b.leafPids = make([]*bitset.Bitset, b.tbl.NumPaths()+1)
	if doc.Root != nil {
		if _, err := b.assign(doc.Root, 0); err != nil {
			return nil, err
		}
	}
	return b.lab, nil
}

// MustBuild is Build that panics on error, for in-process-constructed
// documents (tests, generators) where a labeling failure is a
// programmer error.
func MustBuild(doc *xmltree.Document) *Labeling {
	l, err := Build(doc)
	if err != nil {
		panic(err)
	}
	return l
}

// pathTrie is one node of the tag-path trie Build's first walk
// descends: kids by child tag, and enc, the encoding of the path that
// ends here once a leaf has been seen on it (a path may be both a
// leaf path and a prefix of longer ones).
type pathTrie struct {
	enc  int32
	kids map[string]*pathTrie
}

// builder carries the state of one Build.
type builder struct {
	tbl   *Table
	lab   *Labeling
	stack []string // tags from the root down to the node being visited
	encs  []int32  // leaf encoding by node Ord; 0 for interior nodes

	// leafPids caches the interned single-bit pid of each encoding, so
	// a leaf costs a slice read; scratch holds one or-accumulator per
	// depth of the bottom-up walk.
	leafPids []*bitset.Bitset
	scratch  []*bitset.Bitset
}

// collect is the first walk: it registers n's path in the encoding
// table if n is the first leaf on it and records the leaf's encoding.
func (b *builder) collect(n *xmltree.Node, t *pathTrie) error {
	if n.Ord < 0 || n.Ord >= len(b.encs) {
		return fmt.Errorf("pathenc: node ord %d outside [0,%d): %w", n.Ord, len(b.encs), guard.ErrInternal)
	}
	b.stack = append(b.stack, n.Tag)
	if n.IsLeaf() {
		if t.enc == 0 {
			p := strings.Join(b.stack, "/")
			enc, ok := b.tbl.byPath[p]
			if !ok {
				enc = b.tbl.add(p)
			}
			t.enc = int32(enc)
		}
		b.encs[n.Ord] = t.enc
	} else {
		for _, c := range n.Children {
			ct := t.kids[c.Tag]
			if ct == nil {
				if t.kids == nil {
					t.kids = make(map[string]*pathTrie)
				}
				ct = &pathTrie{}
				t.kids[c.Tag] = ct
			}
			if err := b.collect(c, ct); err != nil {
				return err
			}
		}
	}
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// assign computes the path id of n bottom-up and records it. A leaf
// takes the interned single bit of its encoding; an interior node ORs
// its children's pids into the scratch bitset of its depth (the
// children's own accumulators sit one level deeper) and interns the
// result, which copies the scratch only for a pid not seen before.
// Nodes are interned in post-order, fixing the Distinct() order.
func (b *builder) assign(n *xmltree.Node, depth int) (*bitset.Bitset, error) {
	l := b.lab
	if n.Ord < 0 || n.Ord >= len(l.pids) {
		return nil, fmt.Errorf("pathenc: node ord %d outside [0,%d): %w", n.Ord, len(l.pids), guard.ErrInternal)
	}
	var pid *bitset.Bitset
	if n.IsLeaf() {
		enc := b.encs[n.Ord]
		if enc == 0 {
			return nil, fmt.Errorf("pathenc: leaf path missing from encoding table: %s: %w", n.PathString(), guard.ErrInternal)
		}
		pid = b.leafPids[enc]
		if pid == nil {
			pid = bitset.New(l.Table.NumPaths())
			pid.Set(int(enc))
			pid = l.intern(pid)
			b.leafPids[enc] = pid
		}
	} else {
		if depth == len(b.scratch) {
			b.scratch = append(b.scratch, bitset.New(l.Table.NumPaths()))
		}
		acc := b.scratch[depth]
		acc.Reset()
		for _, c := range n.Children {
			cp, err := b.assign(c, depth+1)
			if err != nil {
				return nil, err
			}
			acc.Or(cp)
		}
		pid = l.internCopy(acc)
	}
	l.pids[n.Ord] = pid
	return pid, nil
}

// Intern returns the canonical instance of pid's bit sequence,
// registering a copy of it if the sequence is new, so pid stays the
// caller's to reuse. The streaming statistics collector interns each
// element's pid this way as it closes.
func (l *Labeling) Intern(pid *bitset.Bitset) *bitset.Bitset { return l.internCopy(pid) }

// keyBufBytes sizes the stack buffer lookup builds a pid's key in: the
// 4 width bytes plus 8 per word, for pids of up to 1024 paths. A wider
// pid still works; its key append just allocates.
const keyBufBytes = 4 + 8*16

// lookup returns the position in distinct of pid's bit sequence and
// whether it is interned. The key is built in a stack buffer and the
// map probe by string(key) does not allocate, so neither does a hit.
func (l *Labeling) lookup(pid *bitset.Bitset) (int, bool) {
	var buf [keyBufBytes]byte
	i, ok := l.index[string(pid.AppendKey(buf[:0]))]
	return i, ok
}

// intern returns the canonical instance of pid's bit sequence. A new
// sequence is registered as pid itself, which the caller hands over.
func (l *Labeling) intern(pid *bitset.Bitset) *bitset.Bitset {
	if i, ok := l.lookup(pid); ok {
		return l.distinct[i]
	}
	return l.register(pid)
}

// internCopy is intern for a scratch pid: a new sequence is registered
// as a copy, so pid is never retained.
func (l *Labeling) internCopy(pid *bitset.Bitset) *bitset.Bitset {
	if i, ok := l.lookup(pid); ok {
		return l.distinct[i]
	}
	return l.register(pid.Clone())
}

// register appends a pid not interned yet, giving it the next dense id.
func (l *Labeling) register(pid *bitset.Bitset) *bitset.Bitset {
	if l.denseID == nil {
		l.denseID = make(map[*bitset.Bitset]int32)
	}
	l.index[pid.Key()] = len(l.distinct)
	l.denseID[pid] = int32(len(l.distinct))
	l.distinct = append(l.distinct, pid)
	return pid
}

// DenseID returns the dense id of an interned path id — its position in
// Distinct(), a value in [0, NumDistinct()) — and whether the pid is
// known. The fast path is a pointer lookup on the canonical instance
// (every pid flowing out of the statistics tables and histograms is
// one); an equal-bits-but-distinct instance falls back to a key
// lookup, which does not allocate either. Dense ids let hot-path
// caches index slices and bitmaps instead of hashing bit-sequence
// strings.
func (l *Labeling) DenseID(pid *bitset.Bitset) (int32, bool) {
	if id, ok := l.denseID[pid]; ok {
		return id, true
	}
	if i, ok := l.lookup(pid); ok {
		return int32(i), true
	}
	return -1, false
}

// PidOf returns the interned path id of a node.
func (l *Labeling) PidOf(n *xmltree.Node) *bitset.Bitset { return l.pids[n.Ord] }

// Distinct returns all distinct path ids in first-interning order. The
// slice must not be modified. Its length is the "#(Dist Pid)" column
// of Table 3.
func (l *Labeling) Distinct() []*bitset.Bitset { return l.distinct }

// NumDistinct returns the number of distinct path ids in the document.
func (l *Labeling) NumDistinct() int { return len(l.distinct) }

// PidWidth returns the width of every path id in bits (= NumPaths).
func (l *Labeling) PidWidth() int { return l.Table.NumPaths() }

// PidSizeBytes returns the byte size of a single stored path id — the
// "Pid Size" column of Table 3.
func (l *Labeling) PidSizeBytes() int { return (l.PidWidth() + 7) / 8 }

// PidTableSizeBytes returns the storage of the raw path id table
// (every distinct bit sequence spelled out) — the "PidTab" column of
// Table 3, which the compressed binary tree of package pidtree is
// measured against.
func (l *Labeling) PidTableSizeBytes() int {
	return l.NumDistinct() * l.PidSizeBytes()
}

// Axis distinguishes the two downward axes of the query language.
type Axis int

const (
	// Child is the XPath child axis ("/").
	Child Axis = iota
	// Descendant is the XPath descendant axis ("//").
	Descendant
)

func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// EdgeCompatible reports whether an element with tag ancTag and path
// id ancPid can stand in the given axis relationship above an element
// with tag descTag and path id descPid. This is the pruning test of
// the path join (Section 4):
//
//   - the ancestor's pid must contain or equal the descendant's
//     (necessary, because every root-to-leaf path through a node also
//     passes through all its ancestors);
//   - some common root-to-leaf path must witness the two tags at a
//     compatible distance (adjacent for Child), resolved from the
//     encoding table as in Examples 2.2 and 2.3.
func (l *Labeling) EdgeCompatible(ancTag string, ancPid *bitset.Bitset, descTag string, descPid *bitset.Bitset, axis Axis) bool {
	return ancPid.ContainsOrEqual(descPid) &&
		l.PathWitness(ancTag, descTag, descPid, axis)
}

// PathWitness is the witness half of EdgeCompatible, factored out
// because it does not depend on the ancestor's pid at all: whether
// some root-to-leaf path of descPid carries ancTag above descTag at an
// axis-compatible distance is a function of (ancTag, descTag, axis,
// descPid) only. The estimator's kernel exploits this to memoize one
// witness bit per descendant pid instead of one verdict per (ancestor,
// descendant) pid pair, leaving pure bit containment in its inner
// loop.
func (l *Labeling) PathWitness(ancTag, descTag string, descPid *bitset.Bitset, axis Axis) bool {
	// A tag missing from the table occurs on no path, so no witness
	// can exist.
	t := l.Table
	ancID, ok := t.tagIDs[ancTag]
	if !ok {
		return false
	}
	descID, ok := t.tagIDs[descTag]
	if !ok {
		return false
	}
	// In EdgeCompatible both tags occur on every path of descPid (the
	// descendant sits on all of them; the ancestor spans a superset).
	// Scan those paths for a witness — the interned-tag form of
	// TagRelationship, with the tag-id lookups hoisted out of the
	// per-path loop. ForEachOne keeps the test allocation-free.
	found := false
	descPid.ForEachOne(func(enc int) bool {
		ids := t.pathTagIDs[enc-1]
		for i, id := range ids {
			if id != ancID {
				continue
			}
			for j := i + 1; j < len(ids); j++ {
				if ids[j] != descID {
					continue
				}
				// Adjacent occurrences witness both axes; a wider gap
				// only the descendant axis.
				if j == i+1 || axis == Descendant {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// AnchorSegment supports the preceding/following rewriting of
// Example 5.3. Given the tag of the last trunk node (the common
// context, e.g. A) and the path id of the node reached through the
// order axis (e.g. D with p5), it decomposes the pid into its
// root-to-leaf paths and returns, for each, the tag segment from the
// child of the context (the sibling anchor, e.g. B) down to the target
// tag inclusive: ["B", "D"]. Segments are deduplicated.
func (l *Labeling) AnchorSegment(contextTag string, targetTag string, pid *bitset.Bitset) [][]string {
	var out [][]string
	seen := make(map[string]bool)
	pid.ForEachOne(func(enc int) bool {
		tags := l.Table.PathTags(enc)
		for i, tag := range tags {
			if tag != contextTag || i+1 >= len(tags) {
				continue
			}
			for j := i + 1; j < len(tags); j++ {
				if tags[j] != targetTag {
					continue
				}
				seg := tags[i+1 : j+1]
				key := strings.Join(seg, "/")
				if !seen[key] {
					seen[key] = true
					cp := make([]string, len(seg))
					copy(cp, seg)
					out = append(out, cp)
				}
			}
		}
		return true
	})
	return out
}
