package stream

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
	"flowrank/internal/packet"
	"flowrank/internal/sampler"
)

// copyBin deep-copies a BinResult so it can be retained past emit when
// the engine recycles its buffers.
func copyBin(b BinResult) BinResult {
	out := b
	out.Orig = append([]flowtable.Entry(nil), b.Orig...)
	out.SampledTop = append([]flowtable.Entry(nil), b.SampledTop...)
	out.SampledCounts = append([]int64(nil), b.SampledCounts...)
	if b.Inversion != nil {
		inv := *b.Inversion
		out.Inversion = &inv
	}
	return out
}

// TestEngineTableKindsExactInvariance: the open-addressing table and the
// map reference must produce bit-identical bin streams for any worker
// count and batch size, with CountErr always 0.
func TestEngineTableKindsExactInvariance(t *testing.T) {
	pkts := makePackets(t, 15, 150, 17)
	base := func(spec flowtable.Spec) Config {
		return Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.2, 23),
			BinSeconds: 5,
			TopT:       10,
			Workers:    1,
			Tables:     spec,
		}
	}
	want := runEngine(t, base(flowtable.Spec{Kind: flowtable.KindMap}), pkts)
	if len(want) < 3 {
		t.Fatalf("degenerate trace: only %d bins", len(want))
	}
	for _, b := range want {
		if b.CountErr != 0 {
			t.Fatalf("bin %d: exact table reports CountErr %d", b.Bin, b.CountErr)
		}
	}
	specs := []flowtable.Spec{
		{},                          // zero spec = flat, default pre-size
		{Kind: flowtable.KindExact}, // explicit flat
		{Kind: flowtable.KindExact, Slots: 10000}, // pre-sized flat
		{Kind: flowtable.KindMap},
	}
	for _, spec := range specs {
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 7, 512} {
				cfg := base(spec)
				cfg.Workers = workers
				cfg.BatchSize = batch
				got := runEngine(t, cfg, pkts)
				compareBins(t, fmt.Sprintf("spec=%v workers=%d batch=%d", spec, workers, batch), got, want)
			}
		}
	}
}

// TestEngineRecycleMatches: buffer recycling must not change any bin's
// content — only its lifetime. Each recycled bin, deep-copied inside
// emit, must equal the retained bin of the non-recycling run.
func TestEngineRecycleMatches(t *testing.T) {
	pkts := makePackets(t, 15, 150, 19)
	for _, spec := range []flowtable.Spec{{}, {Kind: flowtable.KindSpaceSaving, Slots: 64}} {
		for _, workers := range []int{1, 4} {
			// The sampler is a stateful PRNG: every run needs a fresh one.
			mkCfg := func() Config {
				return Config{
					Agg:        flow.FiveTuple{},
					Sampler:    sampler.NewBernoulli(0.3, 31),
					BinSeconds: 5,
					TopT:       10,
					Workers:    workers,
					Tables:     spec,
				}
			}
			want := runEngine(t, mkCfg(), pkts)
			cfg := mkCfg()
			cfg.Recycle = true
			var got []BinResult
			eng, err := NewEngine(cfg, func(b BinResult) error {
				got = append(got, copyBin(b))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				if err := eng.Feed(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			compareBins(t, fmt.Sprintf("spec=%v workers=%d recycle", spec, workers), got, want)
		}
	}
}

// TestEngineBoundedDeterminism: for a fixed worker count and input, the
// bounded summaries are fully deterministic — two runs produce identical
// bin streams. (Across worker counts only the error bound is promised:
// the shard partition is part of a sketch's input.)
func TestEngineBoundedDeterminism(t *testing.T) {
	pkts := makePackets(t, 15, 150, 37)
	for _, kind := range []flowtable.Kind{flowtable.KindSpaceSaving, flowtable.KindCountMin} {
		for _, workers := range []int{1, 4} {
			mkCfg := func() Config {
				return Config{
					Agg:        flow.FiveTuple{},
					Sampler:    sampler.NewBernoulli(0.5, 41),
					BinSeconds: 5,
					TopT:       10,
					Workers:    workers,
					Tables:     flowtable.Spec{Kind: kind, Slots: 32},
				}
			}
			a := runEngine(t, mkCfg(), pkts)
			b := runEngine(t, mkCfg(), pkts)
			compareBins(t, fmt.Sprintf("kind=%v workers=%d rerun", kind, workers), a, b)
			if len(a) < 2 {
				t.Fatalf("kind=%v: degenerate trace: %d bins", kind, len(a))
			}
		}
	}
}

// TestEngineBoundedErrorBound: every count a bounded summary reports must
// bracket the exact count from above within the bin's CountErr — across
// worker counts, where bit-identity is not promised — while the exact
// totals stay exact.
func TestEngineBoundedErrorBound(t *testing.T) {
	pkts := makePackets(t, 15, 200, 43)
	base := func(spec flowtable.Spec, workers int) Config {
		return Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.5, 47),
			BinSeconds: 5,
			TopT:       10,
			Workers:    workers,
			Tables:     spec,
		}
	}
	exact := runEngine(t, base(flowtable.Spec{}, 1), pkts)
	exactSampled := make([]map[flow.Key]int64, len(exact))
	exactOrig := make([]map[flow.Key]int64, len(exact))
	for i, b := range exact {
		exactSampled[i] = make(map[flow.Key]int64, b.SampledFlows)
		exactOrig[i] = make(map[flow.Key]int64, len(b.Orig))
		for j, e := range b.Orig {
			exactOrig[i][e.Key] = e.Packets
			if c := b.SampledCounts[j]; c > 0 {
				exactSampled[i][e.Key] = c
			}
		}
	}
	for _, kind := range []flowtable.Kind{flowtable.KindSpaceSaving, flowtable.KindCountMin} {
		for _, workers := range []int{1, 4} {
			got := runEngine(t, base(flowtable.Spec{Kind: kind, Slots: 48}, workers), pkts)
			if len(got) != len(exact) {
				t.Fatalf("kind=%v workers=%d: %d bins, want %d", kind, workers, len(got), len(exact))
			}
			pressured := 0
			for i, b := range got {
				if b.OrigPackets != exact[i].OrigPackets || b.SampledPackets != exact[i].SampledPackets ||
					b.OrigBytes != exact[i].OrigBytes || b.SampledBytes != exact[i].SampledBytes {
					t.Fatalf("kind=%v workers=%d bin %d: totals diverge from exact", kind, workers, b.Bin)
				}
				if b.CountErr > 0 {
					pressured++
				}
				check := func(key flow.Key, est int64, truth map[flow.Key]int64, label string) {
					tr := truth[key]
					if est < tr || est > tr+b.CountErr {
						t.Fatalf("kind=%v workers=%d bin %d %s: estimate %d outside [%d, %d]",
							kind, workers, b.Bin, label, est, tr, tr+b.CountErr)
					}
				}
				// A zero aligned count is a flow the sampled summary does
				// not track; every tracked one must bracket the truth.
				for j, e := range b.Orig {
					check(e.Key, e.Packets, exactOrig[i], "orig")
					if est := b.SampledCounts[j]; est > 0 {
						check(e.Key, est, exactSampled[i], "sampled")
					}
				}
				for _, e := range b.SampledTop {
					check(e.Key, e.Packets, exactSampled[i], "sampled top")
				}
			}
			if pressured == 0 {
				// The tiny slot budget must have evicted in at least one
				// bin, or the bound checks above are vacuous.
				t.Fatalf("kind=%v workers=%d: no bin under memory pressure", kind, workers)
			}
		}
	}
}

// TestEngineSpaceSavingExactWhenUnderBudget: with a slot budget no shard
// ever fills, Space-Saving never evicts and is exact — its bin stream
// must be bit-identical to the exact table's (packet counts, ordering,
// CountErr 0). This pins the takeover path as the only source of error.
func TestEngineSpaceSavingExactWhenUnderBudget(t *testing.T) {
	pkts := makePackets(t, 15, 120, 53)
	for _, workers := range []int{1, 4} {
		mkCfg := func() Config {
			return Config{
				Agg:        flow.FiveTuple{},
				Sampler:    sampler.NewBernoulli(0.4, 59),
				BinSeconds: 5,
				TopT:       10,
				Workers:    workers,
			}
		}
		want := runEngine(t, mkCfg(), pkts)
		for _, b := range want {
			if len(b.Orig) > 50000 {
				t.Fatalf("trace too large for the under-budget premise: %d flows", len(b.Orig))
			}
		}
		cfg := mkCfg()
		cfg.Tables = flowtable.Spec{Kind: flowtable.KindSpaceSaving, Slots: 1 << 16}
		got := runEngine(t, cfg, pkts)
		// Byte/First/Last bookkeeping matches too, so DeepEqual applies.
		compareBins(t, fmt.Sprintf("workers=%d under-budget", workers), got, want)
	}
}

func TestEngineRejectsBadTableSpec(t *testing.T) {
	emit := func(BinResult) error { return nil }
	bad := []flowtable.Spec{
		{Kind: flowtable.Kind(99)},
		{Slots: -1},
	}
	for _, spec := range bad {
		_, err := NewEngine(Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(1, 1),
			BinSeconds: 1,
			Tables:     spec,
		}, emit)
		if err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// recordingInverter captures, sorted, the sampled counts the engine hands
// the inversion stage each bin, and fails the inversion.
type recordingInverter struct{ bins *[][]int64 }

func (r recordingInverter) Name() string { return "recording" }

func (r recordingInverter) Invert(counts []float64, _ float64) (invert.Estimate, error) {
	c := make([]int64, len(counts))
	for i, v := range counts {
		c[i] = int64(v)
	}
	slices.Sort(c)
	*r.bins = append(*r.bins, c)
	return invert.Estimate{}, errors.New("recorded")
}

// shardedReference replays the engine's accounting by hand: the same
// sampling decisions in trace order, the same hash partition into
// per-shard summary pairs of the spec's kind, one snapshot per non-empty
// bin. For each bin it returns the sampled counts the shard summaries'
// Lookup reports, and their count multiset, sorted.
func shardedReference(t *testing.T, pkts []packet.Packet, cfg Config) ([]map[flow.Key]int64, [][]int64) {
	t.Helper()
	type pair struct{ orig, samp flowtable.Summary }
	shards := make([]pair, cfg.Workers)
	for i := range shards {
		var err error
		if shards[i].orig, err = cfg.Tables.New(cfg.Agg); err != nil {
			t.Fatal(err)
		}
		if shards[i].samp, err = cfg.Tables.New(cfg.Agg); err != nil {
			t.Fatal(err)
		}
	}
	var lookups []map[flow.Key]int64
	var multisets [][]int64
	bin, n := int64(0), 0
	flush := func() {
		if n == 0 {
			return
		}
		lookup := make(map[flow.Key]int64)
		var counts []int64
		for _, sh := range shards {
			for _, e := range sh.orig.AppendEntries(nil) {
				if se, ok := sh.samp.Lookup(e.Key); ok {
					lookup[e.Key] = se.Packets
				}
			}
			counts = sh.samp.AppendCounts(counts)
			sh.orig.Reset()
			sh.samp.Reset()
		}
		slices.Sort(counts)
		lookups = append(lookups, lookup)
		multisets = append(multisets, counts)
		n = 0
	}
	for _, p := range pkts {
		for p.Time >= float64(bin+1)*cfg.BinSeconds {
			flush()
			bin++
		}
		kept := cfg.Sampler.Sample(p)
		key := cfg.Agg.Aggregate(p.Key)
		sh := shards[key.FastHash()%uint64(cfg.Workers)]
		sh.orig.AddAggregated(key, p.Time, int64(p.Size))
		if kept {
			sh.samp.AddAggregated(key, p.Time, int64(p.Size))
		}
		n++
	}
	flush()
	return lookups, multisets
}

// TestEngineAlignedSampledCounts: for every Summary kind, every bin's
// SampledCounts[i] is the sampled summary's Lookup count of Orig[i] (0
// when untracked), and the inversion stage receives exactly the sampled
// summaries' count multiset — including the sampled flows that bounded
// original summaries no longer track.
func TestEngineAlignedSampledCounts(t *testing.T) {
	pkts := makePackets(t, 15, 150, 61)
	kinds := []flowtable.Kind{flowtable.KindExact, flowtable.KindMap, flowtable.KindSpaceSaving, flowtable.KindCountMin}
	for _, kind := range kinds {
		for _, workers := range []int{1, 3} {
			for _, recycle := range []bool{false, true} {
				label := fmt.Sprintf("kind=%v workers=%d recycle=%v", kind, workers, recycle)
				mkCfg := func(inv invert.Estimator) Config {
					return Config{
						Agg:        flow.FiveTuple{},
						Sampler:    sampler.NewBernoulli(0.3, 67),
						BinSeconds: 5,
						TopT:       10,
						Workers:    workers,
						Tables:     flowtable.Spec{Kind: kind, Slots: 40},
						Inverter:   inv,
						Recycle:    recycle,
					}
				}
				lookups, multisets := shardedReference(t, pkts, mkCfg(nil))
				var inverted [][]int64
				cfg := mkCfg(recordingInverter{&inverted})
				var bins, nonEmpty int
				eng, err := NewEngine(cfg, func(b BinResult) error {
					if bins >= len(lookups) {
						t.Fatalf("%s: more bins than the reference's %d", label, len(lookups))
					}
					if len(b.SampledCounts) != len(b.Orig) {
						t.Fatalf("%s bin %d: %d aligned counts for %d flows", label, b.Bin, len(b.SampledCounts), len(b.Orig))
					}
					for i, e := range b.Orig {
						if want := lookups[bins][e.Key]; b.SampledCounts[i] != want {
							t.Fatalf("%s bin %d: flow %v sampled count %d, Lookup says %d",
								label, b.Bin, e.Key, b.SampledCounts[i], want)
						}
					}
					want := multisets[bins]
					if b.SampledFlows != len(want) {
						t.Fatalf("%s bin %d: SampledFlows %d, sampled summaries track %d",
							label, b.Bin, b.SampledFlows, len(want))
					}
					// The inverter runs before emit, and only on bins with
					// sampled flows.
					if len(want) == 0 {
						if b.Inversion.Err != "no sampled flows" {
							t.Fatalf("%s bin %d: empty sample inverted: %+v", label, b.Bin, b.Inversion)
						}
					} else if len(inverted) == 0 || !slices.Equal(inverted[len(inverted)-1], want) {
						t.Fatalf("%s bin %d: inversion multiset differs from the sampled summaries' counts", label, b.Bin)
					} else {
						nonEmpty++
					}
					bins++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pkts {
					if err := eng.Feed(p); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				if bins != len(lookups) || len(inverted) != nonEmpty || nonEmpty < 3 {
					t.Fatalf("%s: %d bins and %d inversions (%d checked), reference %d bins",
						label, bins, len(inverted), nonEmpty, len(lookups))
				}
			}
		}
	}
}
