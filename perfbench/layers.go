package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// layerMap names, for each per-layer metric, the layer it measures and
// the end-to-end metric and workload a change to that layer should move.
var layerMap = []struct{ metric, layer, moves string }{
	{"source.next_ns", "source (packet, pcap, layers)", "cpu_s_per_mpkt and reader_lag_p99_ms on live (large share); throughput_pps on replay (small share)"},
	{"source.packets", "source (packet, pcap, layers)", "packets per traced round the timings cover"},
	{"stream.feed_ns", "stream reader (sampler, flow)", "throughput_pps on replay"},
	{"stream.dispatch_us", "stream reader (sampler, flow)", "throughput_pps on replay"},
	{"stream.reader_stall_ratio", "stream reader (sampler, flow)", "throughput_pps on replay"},
	{"flowtable.ingest_us_per_batch", "flowtable ingest", "throughput_pps on replay (exact); cpu_s_per_mpkt on live (Space-Saving)"},
	{"stream.flush_ms_p50", "bin boundary (stream, flowtable, metrics)", "bin_latency_* on replay; reader_lag_p99_ms on live; ~0 on adapt"},
	{"stream.barrier_ms_p50", "bin boundary (stream, flowtable, metrics)", "bin_latency_* on replay; reader_lag_p99_ms on live; ~0 on adapt"},
	{"stream.merge_ms_p50", "bin boundary (stream, flowtable, metrics)", "bin_latency_* on replay; reader_lag_p99_ms on live; ~0 on adapt"},
	{"invert.ms_p50", "invert", "bin_latency_p50_ms on live"},
	{"invert.error_ratio", "invert", "bin_latency_p50_ms on live"},
	{"daemon.emit_ms_p50", "adaptive/core + netflow encode", "bin_latency_p50_ms on adapt"},
	{"daemon.emit_stage_ms_p50", "adaptive/core + netflow encode", "cross-check of daemon.emit_ms_p50 (journal stages.emit)"},
	{"netflow.datagrams", "netflow", "failed_fraction"},
	{"netflow.records", "netflow", "failed_fraction"},
	{"promexp.page_bytes", "promexp", "scrape_* on live"},
	{"promexp.scrapes", "promexp", "scrape_* on live"},
	{"runtime.gc_cycles", "Go runtime", "bin_latency_p90_ms on replay; reader_lag_p99_ms on live"},
	{"runtime.gc_pause_ms", "Go runtime", "bin_latency_p90_ms on replay; reader_lag_p99_ms on live"},
	{"trace.overhead", "tracing cost", "untraced / traced throughput_pps of this workload"},
}

func printLayerMap(w io.Writer) {
	fmt.Fprintln(w, "layer map: metric | layer | should move")
	for _, l := range layerMap {
		fmt.Fprintf(w, "  %s | %s | %s\n", l.metric, l.layer, l.moves)
	}
}

// layerMetrics derives the per-layer metrics from the traced rounds; the
// untraced rounds of the same run give trace.overhead. Counts are per
// traced round and GC costs per million packets, so neither grows with
// the number of rounds that fit into the run.
func (r *result) layerMetrics() {
	var tr, un []*round
	for _, rd := range r.rounds {
		if rd.traced {
			tr = append(tr, rd)
		} else {
			un = append(un, rd)
		}
	}
	var pulled, nextNs, nextCalls, feedNs, feedGaps int64
	var flushGaps, barrier, merge, invMs, emit, emitStage []float64
	var invFail, grams, recs, scrapes, pageBytes int
	var gcs uint64
	var gcPause time.Duration
	sums := map[string]float64{}
	for i, rd := range tr {
		f := rd.feed
		pulled += f.pulled
		nextNs += f.nextNanos
		nextCalls += f.nextCalls
		feedNs += f.feedNanos
		feedGaps += f.feedGaps
		gcs += rd.gcs
		gcPause += rd.gcPause
		for _, g := range f.flushGaps {
			flushGaps = append(flushGaps, float64(g)/1e6)
		}
		for _, k := range []string{
			"flowrankd_pipeline_dispatch_seconds_sum", "flowrankd_pipeline_dispatch_seconds_count",
			"flowrankd_pipeline_ingest_seconds_sum", "flowrankd_pipeline_ingest_seconds_count",
			"flowrankd_pipeline_reader_stalls_total", "flowrankd_pipeline_reader_batches_total",
		} {
			sums[k] += rd.final[k]
		}
		bins := sortedBins(rd)
		for j, b := range bins {
			st := b.rec.Stages
			if st == nil {
				continue
			}
			barrier = append(barrier, float64(st.Barrier)/1e6)
			merge = append(merge, float64(st.Merge)/1e6)
			emitStage = append(emitStage, float64(st.Emit)/1e6)
			if j < len(rd.inv) {
				emit = append(emit, float64(b.at-rd.inv[j].end)/1e6)
			} else if len(rd.inv) == 0 {
				emit = append(emit, float64(st.Emit)/1e6)
			}
		}
		for _, c := range rd.inv {
			invMs = append(invMs, float64(c.end-c.start)/1e6)
			if c.failed {
				invFail++
			}
		}
		for _, g := range rd.grams {
			grams++
			recs += len(g.recs)
		}
		for _, s := range rd.scrapes {
			if s.ok {
				scrapes++
				pageBytes += s.bytes
			}
		}
		r.spans = append(r.spans, roundSpans(i, rd, bins)...)
	}
	nInv := len(invMs)
	nTr := float64(len(tr))
	mpkts := float64(pulled) / 1e6
	r.add("source.next_ns", ratio(float64(nextNs), float64(nextCalls)), "ns", int(nextCalls))
	r.add("source.packets", ratio(float64(pulled), nTr), "1/round", len(tr))
	r.add("stream.feed_ns", ratio(float64(feedNs), float64(feedGaps)), "ns", int(feedGaps))
	r.add("stream.dispatch_us", 1e6*ratio(sums["flowrankd_pipeline_dispatch_seconds_sum"], sums["flowrankd_pipeline_dispatch_seconds_count"]), "us", int(sums["flowrankd_pipeline_dispatch_seconds_count"]))
	r.add("stream.reader_stall_ratio", ratio(sums["flowrankd_pipeline_reader_stalls_total"], sums["flowrankd_pipeline_reader_batches_total"]), "ratio", int(sums["flowrankd_pipeline_reader_batches_total"]))
	r.add("flowtable.ingest_us_per_batch", 1e6*ratio(sums["flowrankd_pipeline_ingest_seconds_sum"], sums["flowrankd_pipeline_ingest_seconds_count"]), "us", int(sums["flowrankd_pipeline_ingest_seconds_count"]))
	r.add("stream.flush_ms_p50", quantile(flushGaps, 0.5), "ms", len(flushGaps))
	r.add("stream.barrier_ms_p50", quantile(barrier, 0.5), "ms", len(barrier))
	r.add("stream.merge_ms_p50", quantile(merge, 0.5), "ms", len(merge))
	r.add("invert.ms_p50", quantile(invMs, 0.5), "ms", nInv)
	r.add("invert.error_ratio", ratio(float64(invFail), float64(nInv)), "ratio", nInv)
	r.add("daemon.emit_ms_p50", quantile(emit, 0.5), "ms", len(emit))
	r.add("daemon.emit_stage_ms_p50", quantile(emitStage, 0.5), "ms", len(emitStage))
	r.add("netflow.datagrams", ratio(float64(grams), nTr), "1/round", len(tr))
	r.add("netflow.records", ratio(float64(recs), nTr), "1/round", len(tr))
	r.add("promexp.page_bytes", ratio(float64(pageBytes), float64(scrapes)), "bytes", scrapes)
	r.add("promexp.scrapes", ratio(float64(scrapes), nTr), "1/round", len(tr))
	r.add("runtime.gc_cycles", ratio(float64(gcs), mpkts), "1/Mpkt", int(gcs))
	r.add("runtime.gc_pause_ms", ratio(float64(gcPause)/1e6, mpkts), "ms/Mpkt", int(gcs))
	r.add("trace.overhead", ratio(throughput(un), throughput(tr)), "ratio", len(r.rounds))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// throughput is packets pulled over the first-pull-to-final-record time
// of the given rounds.
func throughput(rs []*round) float64 {
	var pulled, span int64
	for _, rd := range rs {
		pulled += rd.feed.pulled
		span += rd.last - rd.feed.firstPull
	}
	return ratio(float64(pulled), float64(span)/1e9)
}

// sortedBins returns a round's journal records in bin order, which is the
// order the daemon inverts them in.
func sortedBins(rd *round) []binObs {
	bins := slices.Clone(rd.bins)
	slices.SortFunc(bins, func(a, b binObs) int { return int(a.rec.Bin - b.rec.Bin) })
	return bins
}

// span is one traced interval. Spans of one bin share Round and Bin;
// Parent names the enclosing span of the same bin ("" for a root).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Round  int    `json:"round"`
	Bin    int64  `json:"bin"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// roundSpans builds a traced round's spans from the moments the bench
// observed: bin close, the inverter's call, the first NetFlow datagram's
// arrival, and the journal record. Scrapes are root spans with bin -1.
func roundSpans(round int, rd *round, bins []binObs) []span {
	gramAt := map[int]int64{}
	for _, g := range rd.grams {
		gramAt[int(g.hdr.FlowSequence)] = g.at
	}
	var out []span
	for j, b := range bins {
		if b.rec.Bin < 0 || b.rec.Bin >= int64(len(rd.feed.closes)) {
			continue
		}
		closeAt := rd.feed.closes[b.rec.Bin]
		mk := func(name, parent string, start, end int64) {
			out = append(out, span{Name: name, Parent: parent, Round: round, Bin: b.rec.Bin, Start: start, End: end})
		}
		mk("bin", "", closeAt, b.at)
		flushEnd := closeAt
		if st := b.rec.Stages; st != nil {
			flushEnd += st.Barrier + st.Merge
		}
		emitStart := flushEnd
		if j < len(rd.inv) {
			flushEnd = rd.inv[j].start
			mk("invert", "bin", rd.inv[j].start, rd.inv[j].end)
			emitStart = rd.inv[j].end
		}
		mk("flush", "bin", closeAt, flushEnd)
		mk("emit", "bin", emitStart, b.at)
		if nf := b.rec.NetFlow; nf != nil {
			if at, ok := gramAt[nf.FlowSeqStart]; ok {
				mk("netflow.recv", "bin", emitStart, at)
			}
		}
		mk("journal", "bin", b.at, b.left)
	}
	for _, s := range rd.scrapes {
		out = append(out, span{Name: "scrape", Round: round, Bin: -1, Start: s.start, End: s.end})
	}
	return out
}

// selfTime is the span count and summed self time of one span name.
type selfTime struct {
	n    int
	self int64
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover.
func selfTimes(spans []span) map[string]selfTime {
	type key struct {
		round int
		bin   int64
		name  string
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Round, s.Bin, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		covered := covered(s, children[key{s.Round, s.Bin, s.Name}])
		e := out[s.Name]
		e.n++
		e.self += (s.End - s.Start) - covered
		out[s.Name] = e
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

func printSelfTimes(w io.Writer, spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintln(w, "span self time: name | spans | mean self ms")
	for _, n := range names {
		e := st[n]
		fmt.Fprintf(w, "  %s | %d | %.4f\n", n, e.n, float64(e.self)/float64(e.n)/1e6)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
