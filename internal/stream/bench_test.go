package stream

import (
	"fmt"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/sampler"
)

// BenchmarkEngine measures ingestion throughput of the sharded engine on a
// multi-bin trace across worker counts. On a multi-core machine the
// packets/s metric should scale near-linearly until the single-threaded
// reader stage saturates; on a single-core machine the worker counts tie
// (parallelism cannot beat the core count, only the algorithmic wins
// remain).
func BenchmarkEngine(b *testing.B) {
	pkts := makePackets(b, 30, 400, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := NewEngine(Config{
					Agg:        flow.FiveTuple{},
					Sampler:    sampler.NewBernoulli(0.1, 7),
					BinSeconds: 5,
					TopT:       10,
					Workers:    workers,
				}, func(BinResult) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pkts {
					if err := eng.Feed(p); err != nil {
						b.Fatal(err)
					}
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(pkts))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkBinBoundary times one bin boundary in isolation — barrier,
// per-shard sort and sampled-count join, merge and swapped-pair metrics —
// on one fixed bin of about 25k five-tuple flows sampled at p = 0.1. The
// shard tables are filled directly before each timed flush, so no packet
// ingestion is in the measurement.
func BenchmarkBinBoundary(b *testing.B) {
	pkts := makePackets(b, 5, 5000, 1)
	smp := sampler.NewBernoulli(0.1, 7)
	items := make([]item, len(pkts))
	flows := make(map[flow.Key]struct{})
	for i, p := range pkts {
		items[i] = item{key: p.Key, time: p.Time, size: int64(p.Size), sampled: smp.Sample(p)}
		flows[p.Key] = struct{}{}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := NewEngine(Config{
				Agg:        flow.FiveTuple{},
				Sampler:    sampler.NewBernoulli(0.1, 7),
				BinSeconds: 3600,
				TopT:       10,
				Workers:    workers,
				Recycle:    true,
			}, func(BinResult) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			fill := func() {
				// Idle workers block on their queues; the flush message
				// orders these writes before the shard's summarize.
				for _, it := range items {
					eng.shards[it.key.FastHash()%uint64(workers)].add(it)
				}
				eng.binPackets = int64(len(items))
			}
			// One untimed bin sizes the tables and the recycled buffers,
			// so allocs/op (one op is one bin) is the steady state.
			fill()
			if err := eng.flushBin(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill()
				b.StartTimer()
				if err := eng.flushBin(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/bin")
			b.ReportMetric(float64(len(flows)), "flows/bin")
		})
	}
}
