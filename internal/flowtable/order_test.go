package flowtable

import (
	"bytes"
	"slices"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/randx"
)

// oracleKeyLess is the byte-wise key order the canonical ranking was
// first defined with: addresses by bytes.Compare, then ports and protocol.
func oracleKeyLess(a, b flow.Key) bool {
	if c := bytes.Compare(a.Src[:], b.Src[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.Dst[:], b.Dst[:]); c != 0 {
		return c < 0
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

func oracleLess(a, b Entry) bool {
	if a.Packets != b.Packets {
		return a.Packets > b.Packets
	}
	return oracleKeyLess(a.Key, b.Key)
}

// randomKey draws every field from a few values, high bits included, so
// pairs often share an address prefix, a whole address or the whole key.
func randomKey(g *randx.RNG) flow.Key {
	octets := []byte{0, 1, 0x7f, 0x80, 0xff}
	ports := []uint16{0, 1, 80, 0x7fff, 0x8000, 0xffff}
	var k flow.Key
	for i := range k.Src {
		k.Src[i] = octets[g.IntN(len(octets))]
		k.Dst[i] = octets[g.IntN(len(octets))]
	}
	k.SrcPort = ports[g.IntN(len(ports))]
	k.DstPort = ports[g.IntN(len(ports))]
	k.Proto = flow.Proto(octets[g.IntN(len(octets))])
	return k
}

// TestCanonicalOrderMatchesByteOracle pins Less, Compare and keyLess to
// the byte-wise oracle over random pairs, equal keys included, and checks
// that Compare is antisymmetric and zero only for equal keys.
func TestCanonicalOrderMatchesByteOracle(t *testing.T) {
	g := randx.New(97)
	equal := 0
	for i := 0; i < 200000; i++ {
		a := Entry{Key: randomKey(g), Packets: int64(g.IntN(3))}
		b := Entry{Key: randomKey(g), Packets: int64(g.IntN(3))}
		if i%10 == 0 {
			b.Key = a.Key
		}
		if a.Key == b.Key {
			equal++
		}
		if got, want := keyLess(a.Key, b.Key), oracleKeyLess(a.Key, b.Key); got != want {
			t.Fatalf("keyLess(%v, %v) = %v, oracle %v", a.Key, b.Key, got, want)
		}
		if got, want := Less(a, b), oracleLess(a, b); got != want {
			t.Fatalf("Less(%+v, %+v) = %v, oracle %v", a, b, got, want)
		}
		c := Compare(a, b)
		if (c < 0) != oracleLess(a, b) || (c > 0) != oracleLess(b, a) {
			t.Fatalf("Compare(%+v, %+v) = %d disagrees with the oracle", a, b, c)
		}
		if (c == 0) != (a.Packets == b.Packets && a.Key == b.Key) {
			t.Fatalf("Compare(%+v, %+v) = %d, want 0 only for equal rank keys", a, b, c)
		}
	}
	if equal < 20000 {
		t.Fatalf("only %d equal-key pairs drawn", equal)
	}
}

// TestSortFuncMatchesOracleSort: sorting with Compare yields exactly the
// order a sort under the oracle does (the order is total over distinct
// keys, so any correct sort agrees).
func TestSortFuncMatchesOracleSort(t *testing.T) {
	g := randx.New(101)
	seen := make(map[flow.Key]bool)
	var entries []Entry
	for len(entries) < 5000 {
		k := randomKey(g)
		if !seen[k] {
			seen[k] = true
			entries = append(entries, Entry{Key: k, Packets: int64(g.IntN(4))})
		}
	}
	got := slices.Clone(entries)
	slices.SortFunc(got, Compare)
	want := slices.Clone(entries)
	slices.SortFunc(want, func(a, b Entry) int {
		switch {
		case oracleLess(a, b):
			return -1
		case oracleLess(b, a):
			return 1
		}
		return 0
	})
	if !slices.Equal(got, want) {
		t.Fatal("Compare sort diverges from the oracle sort")
	}
}
