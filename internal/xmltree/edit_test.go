package xmltree

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"
)

func parseEdit(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return d
}

func writeEdit(t *testing.T, d *Document) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteXML(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAttachDetachRoundtrip splices a cloned subtree in and back out;
// after each Renumber the document must serialize and count as if it
// had been parsed that way.
func TestAttachDetachRoundtrip(t *testing.T) {
	d := parseEdit(t, `<r><a><c></c></a><b></b></r>`)
	sub := CloneSubtree(d.Root.Children[0])
	if err := d.Attach(d.Root, 1, sub); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	d.Renumber()
	want := `<r><a><c></c></a><a><c></c></a><b></b></r>`
	if got := writeEdit(t, d); got != want {
		t.Fatalf("after attach:\n got %s\nwant %s", got, want)
	}
	if d.NumElements() != 6 || d.TagCount("a") != 2 {
		t.Fatalf("after attach: %d elements, %d a's", d.NumElements(), d.TagCount("a"))
	}

	// Ord must be a preorder numbering and Pos the sibling index.
	ord := 0
	d.Walk(func(n *Node) bool {
		if n.Ord != ord {
			t.Fatalf("node %q Ord = %d, want %d", n.Tag, n.Ord, ord)
		}
		if n.Parent != nil && n.Parent.Children[n.Pos] != n {
			t.Fatalf("node %q Pos = %d does not index itself", n.Tag, n.Pos)
		}
		ord++
		return true
	})

	if err := d.Detach(sub); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	d.Renumber()
	if got := writeEdit(t, d); got != `<r><a><c></c></a><b></b></r>` {
		t.Fatalf("after detach: %s", got)
	}
	if d.NumElements() != 4 || sub.Parent != nil {
		t.Fatalf("after detach: %d elements, detached parent %v", d.NumElements(), sub.Parent)
	}
}

func TestAttachErrors(t *testing.T) {
	d := parseEdit(t, `<r><a></a></r>`)
	sub := CloneSubtree(d.Root.Children[0])
	if err := d.Attach(nil, 0, sub); err == nil {
		t.Error("nil parent must fail")
	}
	if err := d.Attach(d.Root, 0, nil); err == nil {
		t.Error("nil subtree must fail")
	}
	if err := d.Attach(d.Root, -1, sub); err == nil {
		t.Error("negative index must fail")
	}
	if err := d.Attach(d.Root, 2, sub); err == nil {
		t.Error("index past len(children) must fail")
	}
	// An attached node is not a detached subtree root.
	if err := d.Attach(d.Root, 0, d.Root.Children[0]); err == nil {
		t.Error("attaching a non-detached node must fail")
	}
}

func TestDetachErrors(t *testing.T) {
	d := parseEdit(t, `<r><a></a></r>`)
	if err := d.Detach(nil); err == nil {
		t.Error("nil node must fail")
	}
	if err := d.Detach(d.Root); err == nil {
		t.Error("detaching the root must fail")
	}
	// A node whose parent no longer lists it (double detach).
	n := d.Root.Children[0]
	if err := d.Detach(n); err != nil {
		t.Fatalf("first detach: %v", err)
	}
	n.Parent = d.Root // simulate a corrupted link
	if err := d.Detach(n); err == nil {
		t.Error("detaching a node absent from its parent must fail")
	}
}

// TestDetachStalePos exercises the fallback scan: Detach must find the
// node even when a preceding un-renumbered edit left Pos stale.
func TestDetachStalePos(t *testing.T) {
	d := parseEdit(t, `<r><a></a><b></b></r>`)
	sub := CloneSubtree(d.Root.Children[0])
	if err := d.Attach(d.Root, 0, sub); err != nil {
		t.Fatal(err)
	}
	// No Renumber: the original <a>'s Pos (0) now points at the splice.
	orig := d.Root.Children[1]
	if err := d.Detach(orig); err != nil {
		t.Fatalf("Detach with stale Pos: %v", err)
	}
	d.Renumber()
	if got := writeEdit(t, d); got != `<r><a></a><b></b></r>` {
		t.Fatalf("after stale-Pos detach: %s", got)
	}
}

// TestQuickEditStatsMatchReparse drives seeded random Attach/Detach
// sequences, with Renumber at random points, and checks after every
// step that the incrementally kept element count and tag statistics
// equal those of a fresh Parse of the serialized tree, and that a Tags
// map taken before the step was left untouched by it.
func TestQuickEditStatsMatchReparse(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDoc(rng, 2+rng.Intn(60))
		for step := 0; step < 12; step++ {
			var nodes []*Node
			d.Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
			before := d.Tags()
			saved := maps.Clone(before)
			switch v := nodes[rng.Intn(len(nodes))]; {
			case v.Parent != nil && rng.Intn(3) == 0:
				if err := d.Detach(v); err != nil {
					t.Fatalf("seed %d step %d: Detach: %v", seed, step, err)
				}
			default:
				sub := &Node{Tag: fmt.Sprintf("fresh%d", rng.Intn(3))}
				if rng.Intn(2) == 0 {
					sub = CloneSubtree(nodes[rng.Intn(len(nodes))])
				}
				if err := d.Attach(v, rng.Intn(len(v.Children)+1), sub); err != nil {
					t.Fatalf("seed %d step %d: Attach: %v", seed, step, err)
				}
			}
			if rng.Intn(2) == 0 {
				d.Renumber()
			}
			if !reflect.DeepEqual(before, saved) {
				t.Fatalf("seed %d step %d: edit mutated a Tags map taken before it", seed, step)
			}
			re := parseEdit(t, writeEdit(t, d))
			if d.NumElements() != re.NumElements() || d.NumDistinctTags() != re.NumDistinctTags() ||
				!reflect.DeepEqual(d.Tags(), re.Tags()) {
				t.Fatalf("seed %d step %d: kept stats %d elements %v, reparse %d elements %v",
					seed, step, d.NumElements(), d.Tags(), re.NumElements(), re.Tags())
			}
			for tag, c := range re.Tags() {
				if d.TagCount(tag) != c {
					t.Fatalf("seed %d step %d: TagCount(%q) = %d, reparse %d", seed, step, tag, d.TagCount(tag), c)
				}
			}
		}
	}
}

func TestNodeAtLocOf(t *testing.T) {
	d := parseEdit(t, `<r><a><c></c><d></d></a><b></b></r>`)
	cases := []struct {
		loc []int
		tag string
	}{
		{nil, "r"},
		{[]int{0}, "a"},
		{[]int{0, 1}, "d"},
		{[]int{1}, "b"},
	}
	for _, c := range cases {
		n, err := d.NodeAt(c.loc)
		if err != nil {
			t.Fatalf("NodeAt(%v): %v", c.loc, err)
		}
		if n.Tag != c.tag {
			t.Errorf("NodeAt(%v) = %q, want %q", c.loc, n.Tag, c.tag)
		}
		if got := LocOf(n); !reflect.DeepEqual(got, c.loc) && !(len(got) == 0 && len(c.loc) == 0) {
			t.Errorf("LocOf(%q) = %v, want %v", n.Tag, got, c.loc)
		}
	}
	if _, err := d.NodeAt([]int{5}); err == nil {
		t.Error("out-of-range index must fail")
	}
	if _, err := d.NodeAt([]int{0, 0, 0}); err == nil {
		t.Error("descending past a leaf must fail")
	}
	if _, err := (&Document{}).NodeAt(nil); err == nil {
		t.Error("empty document must fail")
	}
}

// TestLocOfStalePos mirrors TestDetachStalePos for the addressing
// inverse: LocOf must fall back to scanning when Pos is stale.
func TestLocOfStalePos(t *testing.T) {
	d := parseEdit(t, `<r><a></a><b></b></r>`)
	if err := d.Attach(d.Root, 0, CloneSubtree(d.Root.Children[1])); err != nil {
		t.Fatal(err)
	}
	// The original <b> moved from index 1 to 2; its Pos still says 1.
	if got := LocOf(d.Root.Children[2]); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("LocOf with stale Pos = %v, want [2]", got)
	}
}

func TestCloneSubtreeIndependence(t *testing.T) {
	d := parseEdit(t, `<r><a><c>x</c></a></r>`)
	c := CloneSubtree(d.Root.Children[0])
	if c == nil || c.Parent != nil {
		t.Fatalf("clone %v must be detached", c)
	}
	if c.Tag != "a" || len(c.Children) != 1 || c.Children[0].Text != "x" {
		t.Fatalf("clone shape wrong: %+v", c)
	}
	if c.Children[0].Parent != c {
		t.Fatal("clone children must point at the clone")
	}
	c.Children[0].Tag = "mutated"
	if d.Root.Children[0].Children[0].Tag != "c" {
		t.Fatal("mutating the clone leaked into the original")
	}
	if CloneSubtree(nil) != nil {
		t.Fatal("CloneSubtree(nil) must be nil")
	}
}

func TestSubtreeSize(t *testing.T) {
	d := parseEdit(t, `<r><a><c></c><d></d></a><b></b></r>`)
	if got := SubtreeSize(d.Root); got != 5 {
		t.Errorf("SubtreeSize(root) = %d, want 5", got)
	}
	if got := SubtreeSize(d.Root.Children[0]); got != 3 {
		t.Errorf("SubtreeSize(a) = %d, want 3", got)
	}
	if got := SubtreeSize(nil); got != 0 {
		t.Errorf("SubtreeSize(nil) = %d, want 0", got)
	}
}
