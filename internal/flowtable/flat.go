package flowtable

import (
	"math/bits"
	"slices"
	"sync"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
)

// Flat is the exact flow table of the packet hot path: open addressing
// over flat slot arrays, the map-table idiom of internal/core's kernel
// memo scaled up to full flow entries. A pre-sized Flat accounts a packet
// with one hash, a short linear probe and three adds — no map header, no
// per-flow pointer, no allocation — so a shard ingesting millions of
// packets per second allocates nothing after warm-up and gives the GC no
// per-flow pointers to scan.
//
// Occupancy is tracked in a byte-per-slot tag array (the top bits of the
// probe hash, never 0) rather than the full hash: at a million flows the
// tag array is ~2 MB and stays cache-resident, so a probe costs one tag
// read plus at most one entry-line miss, where a full-hash array would
// take a second DRAM miss per packet. A tag match that is not a key
// match (about 1 in 128 probes) just continues the probe.
//
// Flat is bit-compatible with Table: both produce identical Entries, Top,
// Counts and totals for the same input (the differential tests in
// flat_test.go pin this under random workloads), so the map table remains
// the reference implementation while Flat carries production traffic.
//
// Slot arrays are drawn from a per-size sync.Pool and returned by
// Release, so short-lived tables (per-bin experiment sweeps) recycle
// their slabs instead of churning the heap.
type Flat struct {
	agg flow.Aggregator
	// tags[i] != 0 marks slot i occupied with the hash tag of its key;
	// entries[i] is the slot's accounting state, valid only when marked.
	tags    []uint8
	entries []Entry
	n       int
	packets int64
	bytesT  int64
}

// flatMinSlots is the smallest slot-array size; large enough that tiny
// tables do not grow immediately, small enough to stay cache-resident.
const flatMinSlots = 64

// NewFlat returns an empty open-addressing table classifying packets
// under agg, pre-sized to hold sizeHint flows without growing (0 picks a
// small default). The table grows transparently past the hint; only the
// pre-sized capacity is allocation-free.
func NewFlat(agg flow.Aggregator, sizeHint int) *Flat {
	f := &Flat{agg: agg}
	f.tags, f.entries = acquireSlab(slotsFor(sizeHint))
	return f
}

// slotsFor converts a flow-count hint to a power-of-two slot count that
// keeps the load factor at or below 3/4.
func slotsFor(hint int) int {
	if hint < 1 {
		hint = 1
	}
	need := hint*4/3 + 1
	if need < flatMinSlots {
		need = flatMinSlots
	}
	return 1 << bits.Len(uint(need-1))
}

// flatTag condenses a probe hash to the slot-occupancy byte; 0 is
// reserved for empty slots, so the low bit is forced on (the probe
// position uses the hash's low bits, the tag its high bits — setting a
// high-byte bit costs half the tag alphabet, not probe quality).
func flatTag(h uint64) uint8 {
	return uint8(h>>56) | 1
}

// Add accounts one packet.
//
//flowrank:hotpath
func (f *Flat) Add(p packet.Packet) {
	f.AddAggregated(f.agg.Aggregate(p.Key), p.Time, int64(p.Size))
}

// AddAggregated accounts one packet whose flow key has already been
// aggregated — the shard-worker entry point of the streaming engine.
//
//flowrank:hotpath
func (f *Flat) AddAggregated(key flow.Key, time float64, size int64) {
	e, isNew := f.findOrClaim(key)
	if isNew {
		*e = Entry{Key: key, First: time}
	}
	e.Packets++
	e.Bytes += size
	e.Last = time
	f.packets++
	f.bytesT += size
}

// AddCount accounts an aggregate observation of pkts packets and
// byteCount bytes for the (already aggregated) key.
//
//flowrank:hotpath
func (f *Flat) AddCount(key flow.Key, pkts, byteCount int64) {
	if pkts <= 0 {
		return
	}
	e, isNew := f.findOrClaim(key)
	if isNew {
		*e = Entry{Key: key}
	}
	e.Packets += pkts
	e.Bytes += byteCount
	f.packets += pkts
	f.bytesT += byteCount
}

// findOrClaim probes for key, claiming (and marking) a fresh slot when
// absent. The returned entry is stale garbage when isNew — the caller
// overwrites it.
//
//flowrank:hotpath
func (f *Flat) findOrClaim(key flow.Key) (e *Entry, isNew bool) {
	h := key.FastHash()
	tag := flatTag(h)
	mask := uint64(len(f.tags) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch f.tags[i] {
		case tag:
			if f.entries[i].Key == key {
				return &f.entries[i], false
			}
		case 0:
			if 4*(f.n+1) > 3*len(f.tags) {
				f.grow(2 * len(f.tags))
				return f.findOrClaim(key)
			}
			f.tags[i] = tag
			f.n++
			return &f.entries[i], true
		}
	}
}

// grow rehashes into a doubled slot array, releasing the old slab to the
// pool. Only the tag survives per slot, so the probe hash is recomputed
// from each entry's key — growth is rare and off the per-packet path.
func (f *Flat) grow(size int) {
	oldTags, oldEntries := f.tags, f.entries
	f.tags, f.entries = acquireSlab(size)
	mask := uint64(size - 1)
	for j, t := range oldTags {
		if t == 0 {
			continue
		}
		h := oldEntries[j].Key.FastHash()
		i := h & mask
		for f.tags[i] != 0 {
			i = (i + 1) & mask
		}
		f.tags[i] = t
		f.entries[i] = oldEntries[j]
	}
	releaseSlab(oldTags, oldEntries)
}

// Len returns the number of distinct flows.
func (f *Flat) Len() int { return f.n }

// TotalPackets returns the number of accounted packets.
func (f *Flat) TotalPackets() int64 { return f.packets }

// TotalBytes returns the number of accounted bytes.
func (f *Flat) TotalBytes() int64 { return f.bytesT }

// ErrorBound implements Summary; Flat is exact.
func (f *Flat) ErrorBound() int64 { return 0 }

// Lookup returns the entry for an (aggregated) key, if present.
func (f *Flat) Lookup(key flow.Key) (Entry, bool) {
	h := key.FastHash()
	tag := flatTag(h)
	mask := uint64(len(f.tags) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch f.tags[i] {
		case tag:
			if f.entries[i].Key == key {
				return f.entries[i], true
			}
		case 0:
			return Entry{}, false
		}
	}
}

// Counts returns the table's packet counts keyed by flow.
func (f *Flat) Counts() map[flow.Key]int64 {
	out := make(map[flow.Key]int64, f.n)
	for i, t := range f.tags {
		if t != 0 {
			out[f.entries[i].Key] = f.entries[i].Packets
		}
	}
	return out
}

// AppendCounts appends every flow's packet count to dst in slot order and
// returns it.
func (f *Flat) AppendCounts(dst []int64) []int64 {
	for i, t := range f.tags {
		if t != 0 {
			dst = append(dst, f.entries[i].Packets)
		}
	}
	return dst
}

// Reset clears the table for the next measurement bin, keeping its slot
// arrays: steady-state bins allocate nothing.
func (f *Flat) Reset() {
	clear(f.tags)
	f.n = 0
	f.packets, f.bytesT = 0, 0
}

// Release returns the table's slot arrays to the slab pool. The table
// must not be used afterwards.
func (f *Flat) Release() {
	releaseSlab(f.tags, f.entries)
	f.tags, f.entries = nil, nil
	f.n = 0
}

// Entries returns all flows sorted by the canonical ranking order.
func (f *Flat) Entries() []Entry {
	return f.AppendEntries(make([]Entry, 0, f.n))
}

// AppendEntries appends all flows to dst in the canonical ranking order
// and returns it. Only the appended region is sorted.
func (f *Flat) AppendEntries(dst []Entry) []Entry {
	base := len(dst)
	for i, t := range f.tags {
		if t != 0 {
			dst = append(dst, f.entries[i])
		}
	}
	tail := dst[base:]
	slices.SortFunc(tail, Compare)
	return dst
}

// Top returns the k largest flows in ranking order.
func (f *Flat) Top(k int) []Entry {
	return f.AppendTop(nil, k)
}

// AppendTop appends the k largest flows in ranking order to dst and
// returns it: a size-k min-heap pass over the slots, O(n log k).
func (f *Flat) AppendTop(dst []Entry, k int) []Entry {
	if k <= 0 {
		return dst
	}
	h := make(entryMinHeap, 0, k+1)
	for i, t := range f.tags {
		if t != 0 {
			h.offer(f.entries[i], k)
		}
	}
	return h.drainInto(dst)
}

// --- slab pool ------------------------------------------------------------

// flatSlab is a parallel (tags, entries) slot-array pair; pooled per
// power-of-two size class so bin-scoped tables reuse memory.
type flatSlab struct {
	tags    []uint8
	entries []Entry
}

var slabPools [64]sync.Pool

func acquireSlab(size int) ([]uint8, []Entry) {
	class := bits.TrailingZeros(uint(size))
	if s, ok := slabPools[class].Get().(*flatSlab); ok {
		clear(s.tags)
		return s.tags, s.entries
	}
	return make([]uint8, size), make([]Entry, size)
}

func releaseSlab(tags []uint8, entries []Entry) {
	if len(tags) == 0 || len(tags) != len(entries) || bits.OnesCount(uint(len(tags))) != 1 {
		return
	}
	class := bits.TrailingZeros(uint(len(tags)))
	slabPools[class].Put(&flatSlab{tags: tags, entries: entries})
}
