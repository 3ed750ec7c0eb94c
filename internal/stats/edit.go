package stats

import "xpathest/internal/bitset"

// This file holds the in-place mutators the incremental maintenance
// path (package delta) applies after a subtree edit: occurrence deltas
// on the PathId-Frequency table and cell-level adjustments on the
// Path-Order tables. All counts are whole numbers stored as float64,
// so ±1 adjustments reproduce a from-scratch collection bit for bit;
// structures are deleted the moment they empty, keeping the mutated
// tables indistinguishable from freshly collected ones. Every pid
// handed to these mutators must be its canonical interned instance —
// the same assumption CollectFreq/CollectOrder already make.

// NumTags returns the number of tags with at least one entry.
func (t *FreqTable) NumTags() int { return len(t.byTag) }

// AddFreq adjusts the (tag, pid) entry by d occurrences. An absent
// entry is appended at the end of the tag's list (matching the
// first-occurrence append order of CollectFreq when the new occurrence
// is the document's last of its tag); an entry whose count reaches
// zero is removed, and a tag with no entries left disappears.
func (t *FreqTable) AddFreq(tag string, pid *bitset.Bitset, d float64) {
	entries := t.byTag[tag]
	for i := range entries {
		if entries[i].Pid == pid || entries[i].Pid.Equal(pid) {
			entries[i].Freq += d
			if entries[i].Freq == 0 {
				entries = append(entries[:i], entries[i+1:]...)
				if len(entries) == 0 {
					delete(t.byTag, tag)
				} else {
					t.byTag[tag] = entries
				}
			}
			return
		}
	}
	if d > 0 {
		t.byTag[tag] = append(entries, PidFreq{Pid: pid, Freq: d})
	}
}

// AddOrder adjusts g(pid, sibTag) of tag's path-order table by d,
// creating the table and cell structures on first use and deleting
// them as counts vanish, so an incrementally maintained table set is
// structurally identical to a re-collected one.
func (ts *OrderTables) AddOrder(tag string, region Region, pid *bitset.Bitset, sibTag string, d float64) {
	if d == 0 {
		return
	}
	ts.table(tag).add(region, pid, sibTag, d)
	ts.dropIfEmpty(tag)
}

// table returns tag's path-order table, creating it if absent. The
// zero OrderTables is an empty table set ready for AddOrder and
// ApplyGroup.
func (ts *OrderTables) table(tag string) *OrderTable {
	tbl := ts.byTag[tag]
	if tbl == nil {
		if ts.byTag == nil {
			ts.byTag = make(map[string]*OrderTable)
		}
		tbl = newOrderTable(tag)
		ts.byTag[tag] = tbl
	}
	return tbl
}

// dropIfEmpty deletes tag's table once its last cell is gone.
func (ts *OrderTables) dropIfEmpty(tag string) {
	if tbl := ts.byTag[tag]; tbl != nil && tbl.empty() {
		delete(ts.byTag, tag)
	}
}

// GroupMember is one child of a sibling group as the order sweep sees
// it: its tag and its (post-edit) path id.
type GroupMember struct {
	Tag string
	Pid *bitset.Bitset
}

// ApplyGroup adds sign times the Path-Order contributions of one
// sibling group, running the same sweep CollectOrder runs per group:
// each member lands in the Before region for every tag still to come
// and in the After region for every tag already seen. With sign -1 it
// retracts a group's contributions. Groups of fewer than two members
// contribute nothing, mirroring the collector.
func (ts *OrderTables) ApplyGroup(members []GroupMember, sign float64) {
	var sw sweep
	sw.apply(ts, members, sign)
}

// sweep is the counted sibling-group sweep behind CollectOrder, the
// streaming collector and ApplyGroup, with scratch reused across the
// groups of one collection. Rather than visit every (member, tag) pair
// as a cell write, it takes each distinct tag's first and last
// position in the group, counts for each distinct (tag, pid) member
// how many of its occurrences precede a last Y (its Before hits
// against Y) and follow a first Y (its After hits), and then writes
// each non-zero cell once. Counts are whole numbers stored as float64,
// so adding n once yields the same bits as adding 1 n times.
type sweep struct {
	tags        []string      // distinct tags of the group, first-occurrence order
	first, last []int         // per distinct tag: first and last member position
	tagOf       []int         // per member: index into tags
	tbls        []*OrderTable // per distinct tag: its path-order table

	slots   []GroupMember // distinct (tag, pid) members
	slotTag []int         // per slot: index into tags
	counts  []int         // per slot: Before hits per tag, then After hits per tag

	// slotOf indexes slots once a group has more than linearSlots of
	// them; slotOfLive says whether it holds this group's slots.
	slotOf     map[slotKey]int
	slotOfLive bool
}

type slotKey struct {
	tag int
	pid *bitset.Bitset
}

// linearSlots is the slot count up to which a scan finds a member's
// slot; sibling groups rarely have more distinct (tag, pid) members.
const linearSlots = 8

func (s *sweep) apply(ts *OrderTables, members []GroupMember, sign float64) {
	if len(members) < 2 {
		return
	}
	s.tags, s.first, s.last, s.tagOf = s.tags[:0], s.first[:0], s.last[:0], s.tagOf[:0]
	s.tbls = s.tbls[:0]
	for i, m := range members {
		t := s.tagIndex(m.Tag)
		if t < 0 {
			t = len(s.tags)
			s.tags = append(s.tags, m.Tag)
			s.first = append(s.first, i)
			s.last = append(s.last, i)
			// Every member of a group of two or more gets at least
			// one cell, so each distinct tag's table is written.
			s.tbls = append(s.tbls, ts.table(m.Tag))
		}
		s.last[t] = i
		s.tagOf = append(s.tagOf, t)
	}

	nt := len(s.tags)
	s.slots, s.slotTag, s.counts, s.slotOfLive = s.slots[:0], s.slotTag[:0], s.counts[:0], false
	for i, m := range members {
		slot := s.slot(s.tagOf[i], m)
		c := s.counts[slot*2*nt : (slot+1)*2*nt]
		for y := 0; y < nt; y++ {
			if s.last[y] > i {
				c[y]++
			}
			if s.first[y] < i {
				c[nt+y]++
			}
		}
	}

	for slot, m := range s.slots {
		tbl := s.tbls[s.slotTag[slot]]
		c := s.counts[slot*2*nt : (slot+1)*2*nt]
		for y, tag := range s.tags {
			if n := c[y]; n > 0 {
				tbl.add(Before, m.Pid, tag, sign*float64(n))
			}
			if n := c[nt+y]; n > 0 {
				tbl.add(After, m.Pid, tag, sign*float64(n))
			}
		}
	}
	if sign < 0 {
		for _, tag := range s.tags {
			ts.dropIfEmpty(tag)
		}
	}
}

// tagIndex returns the position of tag among the group's distinct tags,
// or -1. Sibling groups carry few distinct tags, so a scan beats a map.
func (s *sweep) tagIndex(tag string) int {
	for i, t := range s.tags {
		if t == tag {
			return i
		}
	}
	return -1
}

// slot returns the slot of member m (whose tag has index t), adding
// one with zeroed counts if m is the first of its (tag, pid). A scan
// finds it or, in a group with many distinct members, the slot index.
func (s *sweep) slot(t int, m GroupMember) int {
	k := slotKey{tag: t, pid: m.Pid}
	if s.slotOfLive {
		if j, ok := s.slotOf[k]; ok {
			return j
		}
	} else {
		for j, sm := range s.slots {
			if s.slotTag[j] == t && sm.Pid == m.Pid {
				return j
			}
		}
	}
	j := len(s.slots)
	s.slots = append(s.slots, m)
	s.slotTag = append(s.slotTag, t)
	s.counts = append(s.counts, make([]int, 2*len(s.tags))...)
	switch {
	case s.slotOfLive:
		s.slotOf[k] = j
	case len(s.slots) > linearSlots:
		s.indexSlots()
	}
	return j
}

// indexSlots builds the slot index from the group's slots so far. An
// index grown large by an earlier group is dropped rather than
// cleared, since clearing a map costs its capacity.
func (s *sweep) indexSlots() {
	if len(s.slotOf) > 8*linearSlots {
		s.slotOf = nil
	}
	if s.slotOf == nil {
		s.slotOf = make(map[slotKey]int)
	} else {
		clear(s.slotOf)
	}
	for j, sm := range s.slots {
		s.slotOf[slotKey{tag: s.slotTag[j], pid: sm.Pid}] = j
	}
	s.slotOfLive = true
}

// MoveCells rewrites every cell of tag's table from oldPid to newPid
// for one element whose pid changed without its sibling surroundings
// changing: beforeTags are the distinct tags of its following
// siblings, afterTags those of its preceding siblings (the tag sets
// the sweep would charge it for).
func (ts *OrderTables) MoveCells(tag string, oldPid, newPid *bitset.Bitset, beforeTags, afterTags []string) {
	for _, t := range beforeTags {
		ts.AddOrder(tag, Before, oldPid, t, -1)
		ts.AddOrder(tag, Before, newPid, t, 1)
	}
	for _, t := range afterTags {
		ts.AddOrder(tag, After, oldPid, t, -1)
		ts.AddOrder(tag, After, newPid, t, 1)
	}
}
