package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"xpathest"
	"xpathest/internal/datagen"
	"xpathest/internal/guard"
	"xpathest/internal/workload"
	"xpathest/internal/xmltree"
	"xpathest/internal/xpath"
)

// spec is one workload: the document it serves, the read traffic and
// the write traffic. Every input is derived from the run's seed.
type spec struct {
	Name    string
	Why     string // the reason the workload exists, as in BENCHMARK.json
	Dataset string // datagen generator name
	Scale   float64

	// PoolDraws is the number of workload.Random attempts behind the
	// read pool; the pool keeps the distinct queries the reference
	// pipeline estimates without error.
	PoolDraws int
	// HotSet, when positive, makes the reader cycle over only the first
	// HotSet queries of the pool, a set that fits both server caches.
	HotSet int

	// WriteRate is the open-loop writer's rate in writes per second: on
	// plays-edit beside the reader, on the cold workloads in the traced
	// replay only.
	WriteRate float64
	// WriteRounds is how often a cold workload's measured run sends each
	// of its write groups; each write's latency is its best round.
	WriteRounds int
	// WritePairs is the number of (op, inverse) pairs generated. The
	// plays-edit writer sends as many as its rate fits into the measured
	// seconds; the cold workloads cycle through all of them.
	WritePairs int
	// Edit runs the writer beside the reader on one server, with its
	// summary store on (Config.SummaryDir). Otherwise write windows
	// alternate with read phases and go to a second server over the
	// same document, without a store, so the reads never enter delta.
	Edit bool
}

var specs = []spec{
	{
		Name:    "plays-cold",
		Why:     "tiny SSPlays summary and reads that miss both caches, so HTTP, parse and BuildTree dominate; edits go to a second server between read windows",
		Dataset: "SSPlays", Scale: 0.1,
		PoolDraws: 60000,
		WriteRate: 15, WritePairs: 4 * rebuildHosts * rebuildEvery, WriteRounds: 3,
	},
	{
		Name:    "plays-edit",
		Why:     "larger SSPlays document with the store on: an open-loop /delta writer beside a cached hot-set reader, so edit cost and its toll on reads show together",
		Dataset: "SSPlays", Scale: 0.3,
		PoolDraws: 2000, HotSet: 64,
		WriteRate: 5, WritePairs: 120,
		Edit: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// The server's default cache capacities (server.Config): the cold
// pools must exceed both, the plays-edit hot set must fit both.
const (
	defaultPlanCacheEntries = 1024
	defaultResultCacheBytes = 4 << 20
)

// heldOutSeed is kept out of tuning and out of the runs a change is
// developed against; a claimed gain must also hold on it.
const heldOutSeed = 1729

// docSeed fixes each workload's document: the run's seed varies the
// traffic (the query pool and the edit script), so the spread between
// runs measures the traffic and the machine, not a different document.
const docSeed = 1

// Sub-seeds keep the query pool and the edit script independent of
// each other while both follow the run's seed.
func querySeed(seed int64) int64 { return seed*7919 + 104729 }
func editSeed(seed int64) int64  { return seed*6151 + 1299709 }

// rebuildEvery makes one edit pair in rebuildEvery introduce a fresh
// path, so both of its writes take the rebuild route. With one pair in
// five, a fifth of the writes are rebuilds and their p90 falls inside
// the rebuild writes rather than on the edge between the two routes.
const rebuildEvery = 5

// rebuildHosts is the number of places the rebuild pairs insert at, in
// turn. The cold workloads generate a multiple of rebuildHosts groups
// of rebuildEvery pairs, so every group holds one rebuild pair and each
// place is written equally often.
const rebuildHosts = 3

// freshTag names the element the rebuild-route pairs insert; no
// generated dataset uses it, so each insertion adds a new path.
const freshTag = "benchfresh"

// inputs is everything a run sends to the server.
type inputs struct {
	XML   []byte   // the document, as POSTed to /summarize
	Pool  []string // canonical, estimable, distinct queries
	Edits []editPair
}

// editPair is one write pair: an op and the op that undoes it, so the
// document is the same after every pair.
type editPair struct {
	Op, Inverse xpathest.EditScript
	// Rebuild marks pairs that introduce a fresh path.
	Rebuild bool
	// OpWire and InverseWire are the /delta request bodies.
	OpWire, InverseWire []byte
}

// genDocument generates the workload's document and serializes it.
func genDocument(sp spec) ([]byte, error) {
	for _, ds := range datagen.Datasets() {
		if ds.Name == sp.Dataset {
			doc := ds.Gen(datagen.Config{Seed: docSeed, Scale: sp.Scale})
			var buf bytes.Buffer
			if err := doc.WriteXML(&buf, false); err != nil {
				return nil, fmt.Errorf("serializing %s: %w", sp.Dataset, err)
			}
			return buf.Bytes(), nil
		}
	}
	return nil, fmt.Errorf("unknown dataset %q", sp.Dataset)
}

// genInputs derives a run's inputs from its seed. ref is the reference
// pipeline over the same document; it filters the pool and supplies
// the expected value of every pool query, returned in the same order.
func genInputs(sp spec, seed int64) (*inputs, *reference, []float64, error) {
	xml, err := genDocument(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	ref, err := buildReference(xml)
	if err != nil {
		return nil, nil, nil, err
	}
	pool, want := genPool(ref, sp.PoolDraws, querySeed(seed))
	edits, err := genEdits(xml, editSeed(seed), sp.WritePairs)
	if err != nil {
		return nil, nil, nil, err
	}
	return &inputs{XML: xml, Pool: pool, Edits: edits}, ref, want, nil
}

// genPool draws random queries over the document's tag alphabet and
// keeps those the reference estimates without error and the server's
// default limits admit. The draw order is kept, so the pool is a pure
// function of (document, seed). Estimation runs on two workers: the
// filter is the costliest part of input generation.
func genPool(ref *reference, draws int, seed int64) ([]string, []float64) {
	cands := workload.Random(ref.lab, workload.RandomConfig{Seed: seed, Num: draws})
	vals := make([]float64, len(cands))
	ok := make([]bool, len(cands))
	lim := guard.DefaultLimits()
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cands); i += workers {
				if lim.CheckQuery(cands[i].String()) != nil {
					continue
				}
				v, err := ref.est.Estimate(cands[i])
				vals[i], ok[i] = v, err == nil
			}
		}(w)
	}
	wg.Wait()
	var pool []string
	var want []float64
	for i, p := range cands {
		if ok[i] {
			pool = append(pool, p.String())
			want = append(want, vals[i])
		}
	}
	return pool, want
}

// genEdits builds the write script: pairs of single-op edits against
// the document as serialized in xml. Each pair leaves the document as
// it found it, so every op is addressed against the original tree.
// Pair k is a rebuild pair when k%rebuildEvery == rebuildEvery-1: it
// inserts a leaf with a fresh tag at one of rebuildHosts fixed places
// and deletes it again. The other pairs alternate between deleting a
// repeated leaf and re-inserting it, and inserting a copy of a
// repeated leaf and deleting it; neither changes the document's path
// structure, so both take the fast route.
func genEdits(xml []byte, seed int64, pairs int) ([]editPair, error) {
	doc, err := xmltree.Parse(bytes.NewReader(xml))
	if err != nil {
		return nil, fmt.Errorf("parsing document for edits: %w", err)
	}
	if _, clash := doc.Tags()[freshTag]; clash {
		return nil, fmt.Errorf("document already uses tag %q", freshTag)
	}
	// leaves: leaf nodes with a leaf sibling of the same tag, so removing
	// or duplicating one keeps every path and every parent's path id.
	// inner: nodes with children, hosts for the fresh-path insertions.
	var leaves, inner []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool {
		if len(n.Children) == 0 {
			return true
		}
		inner = append(inner, n)
		seen := map[string]int{}
		for _, c := range n.Children {
			if c.IsLeaf() {
				seen[c.Tag]++
			}
		}
		for _, c := range n.Children {
			if c.IsLeaf() && seen[c.Tag] > 1 {
				leaves = append(leaves, c)
			}
		}
		return true
	})
	if len(leaves) == 0 || len(inner) == 0 {
		return nil, fmt.Errorf("document has no repeated leaves to edit")
	}
	// The rebuild route's cost depends on where the fresh path lands, so
	// its places are a fixed set drawn once per document and taken in
	// turn: every run writes the same rebuild pairs, and the seed varies
	// the fast-route pairs around them.
	hostRng := rand.New(rand.NewSource(docSeed))
	type slot struct {
		host *xmltree.Node
		at   int
	}
	hosts := make([]slot, rebuildHosts)
	for i := range hosts {
		n := inner[hostRng.Intn(len(inner))]
		hosts[i] = slot{n, hostRng.Intn(len(n.Children) + 1)}
	}
	rng := rand.New(rand.NewSource(seed))
	// The fast-route pairs take their leaves from consecutive strata of
	// the leaves in document order, one at random from each, so every
	// run edits the whole document evenly and the seed moves the median
	// write cost less than independent draws would.
	fast := pairs - pairs/rebuildEvery
	f := 0
	stratum := func() *xmltree.Node {
		lo, hi := f*len(leaves)/fast, (f+1)*len(leaves)/fast
		f++
		return leaves[lo+rng.Intn(max(hi-lo, 1))]
	}
	out := make([]editPair, 0, pairs)
	for k := 0; k < pairs; k++ {
		var ep editPair
		switch {
		case k%rebuildEvery == rebuildEvery-1:
			h := hosts[(k/rebuildEvery)%rebuildHosts]
			ep = insertPair(xmltree.LocOf(h.host), h.at, "<"+freshTag+"></"+freshTag+">")
			ep.Rebuild = true
		case k%2 == 0:
			leaf := stratum()
			ep = deletePair(xmltree.LocOf(leaf), leafXML(leaf))
		default:
			leaf := stratum()
			loc := xmltree.LocOf(leaf)
			ep = insertPair(loc[:len(loc)-1], loc[len(loc)-1]+rng.Intn(2), leafXML(leaf))
		}
		if ep.OpWire, err = wire(ep.Op); err != nil {
			return nil, err
		}
		if ep.InverseWire, err = wire(ep.Inverse); err != nil {
			return nil, err
		}
		out = append(out, ep)
	}
	return out, nil
}

// insertPair inserts sub as child at of the node at parent, then
// deletes it again.
func insertPair(parent []int, at int, sub string) editPair {
	child := append(append([]int(nil), parent...), at)
	return editPair{
		Op:      xpathest.EditScript{Ops: []xpathest.EditOp{{Insert: true, Loc: parent, Index: at, XML: sub}}},
		Inverse: xpathest.EditScript{Ops: []xpathest.EditOp{{Loc: child}}},
	}
}

// deletePair deletes the node at loc, whose serialization is sub, then
// puts it back where it was.
func deletePair(loc []int, sub string) editPair {
	parent := append([]int(nil), loc[:len(loc)-1]...)
	return editPair{
		Op:      xpathest.EditScript{Ops: []xpathest.EditOp{{Loc: loc}}},
		Inverse: xpathest.EditScript{Ops: []xpathest.EditOp{{Insert: true, Loc: parent, Index: loc[len(loc)-1], XML: sub}}},
	}
}

func leafXML(n *xmltree.Node) string {
	var b bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = (&xmltree.Document{Root: n}).WriteXML(&b, false)
	return b.String()
}

func wire(sc xpathest.EditScript) ([]byte, error) {
	var b bytes.Buffer
	if err := sc.Encode(&b); err != nil {
		return nil, fmt.Errorf("encoding edit script: %w", err)
	}
	return b.Bytes(), nil
}

// poolCost is the result-cache footprint of the whole pool under the
// summary name scope, by the cache's own per-entry accounting: the
// scope and canonical query bytes plus a fixed 128-byte overhead.
func poolCost(pool []string, scope string) int64 {
	var c int64
	for _, q := range pool {
		c += int64(len(scope)+len(q)) + 128
	}
	return c
}

// orderShare is the share of pool queries that use an order axis.
func orderShare(pool []string) float64 {
	n := 0
	for _, q := range pool {
		p, err := xpath.Parse(q)
		if err == nil && p.HasOrderAxis() {
			n++
		}
	}
	return float64(n) / float64(max(len(pool), 1))
}
