package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
)

// defaultSeed is the seed whose per-bin results are pinned by
// defaultDigests.
const defaultSeed = 1

// defaultDigests pins each workload's per-bin results and NetFlow
// records (timings excluded) for defaultSeed. A change that alters what
// the daemon measures or exports changes these on purpose, and must
// update them.
var defaultDigests = map[string]string{
	"replay": "df537eecdd672182114a41fa7fe7973105fb99147aed88458a91fbe71806a9a9",
	"live":   "82c34242f77069732998e0aad00f43d6ebcf9225e59ec1c3921749ef6f4583c5",
	"adapt":  "6517c0f581c9a848b6d89511d372ea19fc9de970d3ab2775aae37b3b4a5f1e01",
}

// verdict is the output check of one round.
type verdict struct {
	attempted, failed int
	problems          []string
	digest            string
}

func (v *verdict) problem(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// checkRound verifies a round's outputs against invariants that hold for
// any seed:
//   - every expected bin was journaled exactly once;
//   - the journal's orig_packets sum to the packets pulled, and so does
//     flowrankd_packets_ingested_total;
//   - each bin's NetFlow export arrived and decodes to the records the
//     journal says were sent;
//   - no inversion or adaptive refit failed, and adapted rates stay in (0,1).
//
// It also digests the per-bin results for the cross-round and pinned
// comparisons.
func checkRound(w workload, r *round) verdict {
	var v verdict
	want := r.want
	n := w.binsPerCycle() * r.cycles
	v.attempted += n
	if r.feed.pulled != want {
		v.problem("pulled %d packets, want %d", r.feed.pulled, want)
	}
	byBin := make([]*binObs, n)
	var origSum int64
	for i := range r.bins {
		b := &r.bins[i]
		origSum += b.rec.OrigPackets
		if b.rec.Bin < 0 || b.rec.Bin >= int64(n) || byBin[b.rec.Bin] != nil {
			v.problem("unexpected or duplicate bin %d", b.rec.Bin)
			continue
		}
		byBin[b.rec.Bin] = b
	}
	if len(r.bins) != n {
		v.problem("journaled %d bins, want %d", len(r.bins), n)
	}
	if origSum != r.feed.pulled {
		v.problem("journal orig_packets sum to %d, pulled %d", origSum, r.feed.pulled)
	}
	if !r.finalOK {
		v.problem("final /metrics scrape failed")
	} else if got := r.final["flowrankd_packets_ingested_total"]; got != float64(r.feed.pulled) {
		v.problem("flowrankd_packets_ingested_total = %g, pulled %d", got, r.feed.pulled)
	}

	bySeq := map[uint32]gram{}
	for _, g := range r.grams {
		bySeq[g.hdr.FlowSequence] = g
	}
	wantGrams := 0
	for bin, b := range byBin {
		if b == nil {
			v.failed++
			v.problem("bin %d missing", bin)
			continue
		}
		if msg := binProblem(w, b, bySeq); msg != "" {
			v.failed++
			v.problem("bin %d: %s", bin, msg)
		}
		if nf := b.rec.NetFlow; nf != nil {
			wantGrams += nf.Datagrams
		}
	}
	v.attempted += wantGrams
	if missing := wantGrams - len(r.grams); missing > 0 {
		v.failed += missing
		v.problem("%d NetFlow datagrams not received", missing)
	}
	if r.badGram > 0 {
		v.failed += r.badGram
		v.problem("%d NetFlow datagrams undecodable", r.badGram)
	}
	v.attempted += len(r.scrapes)
	for _, s := range r.scrapes {
		if !s.ok {
			v.failed++
		}
	}
	v.digest = digest(byBin, bySeq)
	return v
}

// binProblem checks one journaled bin; "" means it passed.
func binProblem(w workload, b *binObs, bySeq map[uint32]gram) string {
	rec := b.rec
	nf := rec.NetFlow
	if nf == nil {
		return "no NetFlow export"
	}
	if nf.Err != "" || nf.SendErrors != 0 {
		return fmt.Sprintf("NetFlow export failed: %q, %d send errors", nf.Err, nf.SendErrors)
	}
	recs, grams := 0, 0
	for seq := nf.FlowSeqStart; seq < nf.FlowSeqStart+nf.Records; {
		g, ok := bySeq[uint32(seq)]
		if !ok || g.hdr.Count == 0 {
			return fmt.Sprintf("NetFlow datagram at flow sequence %d not received", seq)
		}
		recs += len(g.recs)
		grams++
		seq += g.hdr.Count
	}
	if recs != nf.Records || grams != nf.Datagrams {
		return fmt.Sprintf("sink decoded %d records in %d datagrams, journal says %d in %d",
			recs, grams, nf.Records, nf.Datagrams)
	}
	if w.inverter != nil {
		if rec.Inversion == nil || rec.Inversion.Err != "" {
			return "inversion failed"
		}
	}
	if w.adapt > 0 {
		ad := rec.Adapt
		if ad == nil || ad.Reason != "" || !(ad.Rate > 0 && ad.Rate < 1) {
			return fmt.Sprintf("adaptive refit failed or left (0,1): %+v", ad)
		}
	}
	return ""
}

// digest hashes every bin's measured results and the NetFlow records
// exported for it, leaving out timings and the sink's address.
func digest(byBin []*binObs, bySeq map[uint32]gram) string {
	h := sha256.New()
	for _, b := range byBin {
		if b == nil {
			fmt.Fprintln(h, "missing")
			continue
		}
		r := b.rec
		fmt.Fprintln(h, r.Bin, r.Start, r.End, r.Table, r.Flows, r.SampledFlows,
			r.OrigPackets, r.SampledPackets, r.SamplingRate, r.CountErrPkts,
			r.RankingFraction, r.DetectionFraction)
		if inv := r.Inversion; inv != nil {
			fmt.Fprintln(h, "inv", inv.Method, inv.MeanPkts, inv.TailIndex, inv.Flows, inv.Err)
		}
		if ad := r.Adapt; ad != nil {
			fmt.Fprintln(h, "adapt", ad.Applied, ad.PrevRate, ad.Rate, ad.Reason)
		}
		if nf := r.NetFlow; nf != nil {
			fmt.Fprintln(h, "nf", nf.Records, nf.Datagrams, nf.SendErrors, nf.FlowSeqStart, nf.Err)
			digestGrams(h, nf.FlowSeqStart, nf.Records, bySeq)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestGrams(h hash.Hash, start, n int, bySeq map[uint32]gram) {
	seqs := make([]uint32, 0, 1)
	for seq := range bySeq {
		if int(seq) >= start && int(seq) < start+n {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		g := bySeq[seq]
		fmt.Fprintln(h, "gram", g.hdr.Count, g.hdr.FlowSequence, g.hdr.SamplingMode, g.hdr.SamplingInterval)
		for _, rec := range g.recs {
			fmt.Fprintln(h, rec.Key, rec.Packets, rec.Octets, rec.FirstMillis, rec.LastMillis)
		}
	}
}
