// Package flowtable provides per-bin flow accounting: classify packets
// into flows under a chosen aggregation, count packets and bytes, and
// extract the top-k list — the link-monitor half of the paper's pipeline.
//
// Table is the exact, unbounded accounting used by the experiments.
// Bounded is the limited-memory variant the paper's related work ([11],
// [13]) studies: a fixed number of slots with bottom-eviction when a new
// flow arrives and the memory is full.
package flowtable

import (
	"cmp"
	"encoding/binary"
	"slices"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
)

// Entry is one flow's accounting state.
type Entry struct {
	Key     flow.Key
	Packets int64
	Bytes   int64
	// First and Last are the timestamps of the first and most recent
	// accounted packet.
	First, Last float64
}

// Less orders entries by descending packet count with a deterministic
// key-based tiebreak, the canonical ranking order of this module.
func Less(a, b Entry) bool { return Compare(a, b) < 0 }

// Compare is the three-way form of Less (negative when a ranks first), for
// slices.SortFunc.
func Compare(a, b Entry) int {
	if a.Packets != b.Packets {
		return cmp.Compare(b.Packets, a.Packets)
	}
	return keyCompare(a.Key, b.Key)
}

func keyLess(a, b flow.Key) bool { return keyCompare(a, b) < 0 }

// keyCompare orders keys lexicographically by (Src, Dst, SrcPort,
// DstPort, Proto), addresses compared as bytes: a big-endian uint32
// compares exactly like its four bytes do.
func keyCompare(a, b flow.Key) int {
	if c := cmp.Compare(binary.BigEndian.Uint32(a.Src[:]), binary.BigEndian.Uint32(b.Src[:])); c != 0 {
		return c
	}
	if c := cmp.Compare(binary.BigEndian.Uint32(a.Dst[:]), binary.BigEndian.Uint32(b.Dst[:])); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstPort, b.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(a.Proto, b.Proto)
}

// Table is an exact flow accounting table. The zero value is not usable;
// construct with New.
type Table struct {
	agg     flow.Aggregator
	entries map[flow.Key]*Entry
	packets int64
	bytesT  int64
}

// New returns an empty table classifying packets under agg.
func New(agg flow.Aggregator) *Table {
	return &Table{agg: agg, entries: make(map[flow.Key]*Entry)}
}

// Add accounts one packet.
func (t *Table) Add(p packet.Packet) {
	t.AddAggregated(t.agg.Aggregate(p.Key), p.Time, int64(p.Size))
}

// AddAggregated accounts one packet whose flow key has already been
// aggregated, bypassing the table's aggregator. It is the shard-worker
// entry point of the streaming engine, whose reader stage aggregates each
// key once to pick the shard.
func (t *Table) AddAggregated(key flow.Key, time float64, size int64) {
	e, ok := t.entries[key]
	if !ok {
		e = &Entry{Key: key, First: time}
		t.entries[key] = e
	}
	e.Packets++
	e.Bytes += size
	e.Last = time
	t.packets++
	t.bytesT += size
}

// AddCount accounts an aggregate observation: pkts packets and byteCount
// bytes for the flow key (already aggregated). It is the fast-path entry
// point used by the flow-bin simulator.
func (t *Table) AddCount(key flow.Key, pkts, byteCount int64) {
	if pkts <= 0 {
		return
	}
	e, ok := t.entries[key]
	if !ok {
		e = &Entry{Key: key}
		t.entries[key] = e
	}
	e.Packets += pkts
	e.Bytes += byteCount
	t.packets += pkts
	t.bytesT += byteCount
}

// Len returns the number of distinct flows.
func (t *Table) Len() int { return len(t.entries) }

// TotalPackets returns the number of accounted packets.
func (t *Table) TotalPackets() int64 { return t.packets }

// TotalBytes returns the number of accounted bytes.
func (t *Table) TotalBytes() int64 { return t.bytesT }

// Lookup returns the entry for an (aggregated) key, if present.
func (t *Table) Lookup(key flow.Key) (Entry, bool) {
	e, ok := t.entries[key]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Counts returns the table's packet counts keyed by flow — the map shape
// metrics.CountSwapped consumes.
func (t *Table) Counts() map[flow.Key]int64 {
	out := make(map[flow.Key]int64, len(t.entries))
	for k, e := range t.entries {
		out[k] = e.Packets
	}
	return out
}

// Reset clears the table for the next measurement bin.
func (t *Table) Reset() {
	clear(t.entries)
	t.packets, t.bytesT = 0, 0
}

// Entries returns all flows sorted by the canonical ranking order.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	slices.SortFunc(out, Compare)
	return out
}

// Top returns the k largest flows in ranking order without sorting the
// whole table: a size-k min-heap pass, O(n log k).
func (t *Table) Top(k int) []Entry {
	return t.AppendTop(nil, k)
}

// MergeEntries k-way merges entry lists that are already in the canonical
// ranking order (as produced by Entries or Top) into one sorted list.
// Entries are not coalesced by key: the intended callers merge shard
// tables, whose key spaces are disjoint by construction.
func MergeEntries(lists ...[]Entry) []Entry {
	out, _ := mergeSortedInto(nil, nil, -1, lists, nil)
	return out
}

// MergeTop merges canonically sorted per-shard top lists and returns the
// global top-k. When every input holds its shard's exact top-k and the
// shards partition the key space, the result is the exact global top-k:
// any globally top-k flow is top-k within its own shard.
func MergeTop(k int, lists ...[]Entry) []Entry {
	if k <= 0 {
		return nil
	}
	out, _ := mergeSortedInto(nil, nil, k, lists, nil)
	return out
}

// mergeSortedInto merges sorted lists into dst, stopping after limit
// appended entries (limit < 0 means merge everything). When counts is
// non-nil, counts[i] is aligned with lists[i] and is merged in step into
// dstCounts, so the returned slices stay aligned with each other.
func mergeSortedInto(dst []Entry, dstCounts []int64, limit int, lists [][]Entry, counts [][]int64) ([]Entry, []int64) {
	h := make(mergeHeap, 0, len(lists))
	total := 0
	for i, l := range lists {
		if len(l) > 0 {
			c := mergeCursor{list: l}
			if counts != nil {
				c.counts = counts[i]
			}
			h = append(h, c)
			total += len(l)
		}
	}
	if limit >= 0 && total > limit {
		total = limit
	}
	dst = slices.Grow(dst, total)
	if counts != nil {
		dstCounts = slices.Grow(dstCounts, total)
	}
	if len(h) == 1 {
		if counts != nil {
			dstCounts = append(dstCounts, h[0].counts[:total]...)
		}
		return append(dst, h[0].list[:total]...), dstCounts
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := dst
	total += len(dst)
	for len(h) > 0 && len(out) < total {
		c := &h[0]
		out = append(out, c.list[c.pos])
		if counts != nil {
			dstCounts = append(dstCounts, c.counts[c.pos])
		}
		c.pos++
		if c.pos == len(c.list) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return out, dstCounts
}

// mergeCursor walks one sorted list, and its aligned counts if any, inside
// the k-way merge.
type mergeCursor struct {
	list   []Entry
	counts []int64
	pos    int
}

// mergeHeap is a binary heap keeping the cursor with the highest-ranked
// pending entry at the root.
type mergeHeap []mergeCursor

// down sifts the cursor at i down to its place.
func (h mergeHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && Less(h[r].list[h[r].pos], h[m].list[h[m].pos]) {
			m = r
		}
		if !Less(h[m].list[h[m].pos], h[i].list[h[i].pos]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// entryMinHeap keeps the currently-lowest-ranked entry at the root.
type entryMinHeap []Entry

func (h entryMinHeap) Len() int            { return len(h) }
func (h entryMinHeap) Less(i, j int) bool  { return Less(h[j], h[i]) }
func (h entryMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryMinHeap) Push(x interface{}) { *h = append(*h, x.(Entry)) }
func (h *entryMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
