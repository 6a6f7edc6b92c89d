package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/pcap"
	"flowrank/internal/tracegen"
)

// workload is one traffic mix and daemon configuration. Every workload
// replays the paper's sprint5 preset; a round is one daemon lifetime over
// `cycles` back-to-back replays of a steady-state window of that trace.
type workload struct {
	name string

	// window is the trace seconds replayed per cycle, a multiple of bin.
	window float64
	cycles int

	bin      float64
	rate     float64
	tables   flowtable.Spec
	inverter invert.Estimator
	adapt    float64
	// pcap feeds header-only pcap frames through the pcap+layers decoder
	// instead of the native trace format.
	pcap bool
	// speed > 0 makes the round an open loop that releases each packet
	// when it is due at this multiple of trace time; 0 is a closed loop
	// that replays as fast as the daemon pulls.
	speed float64
}

const (
	// warmup is the trace time discarded before the window, so every bin
	// sees the preset's steady flow population (flow durations average
	// 13 s with a lognormal tail); the window is cut at its end, so no
	// drain-down tail reaches the daemon either.
	warmup = 60.0
	// topT is the ranked top-list length, exported over NetFlow every bin.
	topT = 10
	// workers pins the engine's shard count so outputs (Space-Saving
	// partitions, digests) are identical on any host.
	workers = 2
	// snapLen is the live capture's snap length: header-only frames.
	snapLen = 96
	// paceSlack is the open-loop generator's sleep slack: it sleeps only
	// when the next packet is due further ahead than this, and releases
	// it at once otherwise.
	paceSlack = 200 * time.Microsecond
	// scrapeEvery is the open loop's fixed /metrics scrape interval.
	scrapeEvery = 100 * time.Millisecond
	// setupProbes is how many extra daemon set-ups each run times for
	// setup_s.
	setupProbes = 25
)

var workloads = []workload{
	// The throughput case: the per-packet path and the exact-table bin
	// boundary each carry about half the CPU.
	{
		name:   "replay",
		window: 30,
		cycles: 5,
		bin:    1.5,
		rate:   0.01,
	},
	// How the monitor is deployed: packets arrive whether it keeps up or
	// not, pcap+layers decode dominates, and a bin-boundary stall shows as
	// reader lag. The only workload with bounded tables and scheduled
	// scrapes. At p = 0.1 each bin gives EM a few thousand sampled flows.
	{
		name:     "live",
		window:   20,
		cycles:   2,
		bin:      2,
		rate:     0.1,
		tables:   flowtable.Spec{Kind: flowtable.KindSpaceSaving},
		inverter: invert.EM{},
		pcap:     true,
		speed:    10,
	},
	// The adaptive refit is nearly all of bin latency here and absent
	// elsewhere; the only workload whose sampling rate changes per bin.
	{
		name:   "adapt",
		window: 20,
		cycles: 1,
		bin:    5,
		// Target 1 is the paper's acceptability threshold for the ranking
		// metric; on sprint5 the loop then settles near p = 0.95, strictly
		// inside (0,1). Starting near there makes every bin's refit a
		// steady-state one, so seeds agree on its cost.
		rate:     0.9,
		inverter: invert.Parametric{},
		adapt:    1,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// binsPerCycle is the number of bins one replay of the window spans.
func (w workload) binsPerCycle() int {
	return int(math.Round(w.window / w.bin))
}

// offeredRate is an open-loop workload's packet rate in pkts/s.
func (w workload) offeredRate(in *input) float64 {
	return float64(in.packets) / w.window * w.speed
}

// input is one cycle of a workload's traffic, encoded in the format the
// daemon decodes.
type input struct {
	data    []byte
	packets int64
	// last is the trace time of the cycle's last packet.
	last float64
}

var errWindowDone = errors.New("window complete")

// makeInput generates the steady-state window of the sprint5 preset for
// seed and encodes it. The same seed always yields the same bytes.
func makeInput(w workload, seed uint64) (*input, error) {
	records, err := tracegen.Generate(tracegen.SprintFiveTuple(warmup+w.window, seed))
	if err != nil {
		return nil, err
	}
	// Flows that end before the window contribute no packets to it.
	kept := records[:0]
	for _, r := range records {
		if r.Start+r.Duration >= warmup {
			kept = append(kept, r)
		}
	}
	var buf bytes.Buffer
	in := &input{}
	var emit func(packet.Packet) error
	flush := func() error { return nil }
	if w.pcap {
		pw, err := pcap.NewWriter(&buf, snapLen)
		if err != nil {
			return nil, err
		}
		frame := make([]byte, 0, 64)
		emit = func(p packet.Packet) error {
			key := p.Key
			if key.Proto != flow.ProtoTCP && key.Proto != flow.ProtoUDP {
				key.Proto = flow.ProtoTCP
			}
			var err error
			frame, err = layers.Frame(frame[:0], key, 0, uint32(p.Time*1e6))
			if err != nil {
				return err
			}
			return pw.Write(pcap.Packet{Time: p.Time, Data: frame, OrigLen: p.Size})
		}
	} else {
		pw, err := packet.NewWriter(&buf)
		if err != nil {
			return nil, err
		}
		emit, flush = pw.Write, pw.Flush
	}
	err = packetgen.Stream(kept, seed+1, func(p packet.Packet) error {
		if p.Time < warmup {
			return nil
		}
		if p.Time >= warmup+w.window {
			return errWindowDone
		}
		p.Time -= warmup
		in.packets++
		in.last = decodedTime(p.Time, w.pcap)
		return emit(p)
	})
	if err != nil && !errors.Is(err, errWindowDone) {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if in.packets == 0 {
		return nil, errors.New("empty window")
	}
	in.data = buf.Bytes()
	return in, nil
}

// decodedTime is t as the daemon's decoder will read it back: pcap
// records carry microseconds, native traces nanoseconds. The replay loop
// shifts each cycle by exactly one window only if it knows the last
// packet's time to the bit.
func decodedTime(t float64, isPcap bool) float64 {
	if !isPcap {
		return float64(int64(math.Round(t*1e9))) / 1e9
	}
	sec := math.Floor(t)
	usec := math.Round((t - sec) * 1e6)
	if usec >= 1e6 {
		sec++
		usec -= 1e6
	}
	return sec + usec/1e6
}
