package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flowrank/internal/obs"
	"flowrank/internal/packet"
	"flowrank/internal/source"
)

// feed is the bench's PacketSource. It pulls from the program's own
// source chain (a native or pcap replay looped by source.Loop), ends the
// stream after a fixed packet count, and stamps the moments the benchmark
// measures: the first pull, each bin's close, and the reader's lag.
type feed struct {
	inner  source.PacketSource
	limit  int64
	pulled int64
	bin    float64
	// speed > 0 paces the feed as an open loop (see workload.speed).
	speed  float64
	traced bool

	// started is closed at the first pull; firstPull is its time.
	started   chan struct{}
	firstPull int64
	// cur is the bin the reader is in and end its end time; closes[b] is
	// when bin b closed: the pull of the first packet past its end in a
	// closed loop, the wall time that end was due in an open loop.
	cur    int64
	end    float64
	closes []int64

	// lags are an open loop's per-packet reader lags in nanoseconds: the
	// time a packet was pulled minus the time it was due. They fill a
	// buffer the run reuses for every round.
	lags []int32
	// lastReturn is when the previous Next returned (open loop or traced).
	lastReturn int64

	// Traced-only per-packet layer accounting: busy time in the program's
	// source (decode), gaps between pulls on ordinary packets (the
	// reader's Feed) and on boundary packets (the bin flush).
	nextNanos, nextCalls int64
	feedNanos, feedGaps  int64
	flushGaps            []int64
	boundary             bool

	done      chan struct{}
	closeOnce sync.Once
	closed    atomic.Bool
	timer     *time.Timer
}

// newFeed replays in up to cycles times under source.Loop, shifting each
// cycle by exactly one window so bins line up with cycles, and ends the
// stream after limit packets. An open loop records its reader lags into
// lagBuf, which must hold limit of them; a run allocates it once, so no
// round's allocation or peak resident set counts it.
func newFeed(w workload, in *input, cycles int, limit int64, traced bool, lagBuf []int32) (*feed, error) {
	isPcap := w.pcap
	loop, err := source.NewLoop(func() (source.PacketSource, error) {
		if isPcap {
			return source.NewPcapSource(bytes.NewReader(in.data))
		}
		return source.NewTraceSource(bytes.NewReader(in.data))
	}, w.window-in.last)
	if err != nil {
		return nil, err
	}
	f := &feed{
		inner:   loop,
		limit:   limit,
		bin:     w.bin,
		speed:   w.speed,
		traced:  traced,
		started: make(chan struct{}),
		end:     w.bin,
		closes:  make([]int64, w.binsPerCycle()*cycles),
		done:    make(chan struct{}),
	}
	if w.speed > 0 {
		if int64(cap(lagBuf)) < limit {
			return nil, fmt.Errorf("lag buffer holds %d packets, want %d", cap(lagBuf), limit)
		}
		f.lags = lagBuf[:0]
		f.timer = time.NewTimer(time.Hour)
		f.timer.Stop()
	}
	return f, nil
}

// due is the wall time trace time t is due in an open loop.
func (f *feed) due(t float64) int64 {
	return f.firstPull + int64(t/f.speed*1e9)
}

func (f *feed) recordLag(v int64) {
	if v > math.MaxInt32 {
		v = math.MaxInt32
	}
	f.lags = append(f.lags, int32(v))
}

// Next implements source.PacketSource.
func (f *feed) Next(p *packet.Packet) error {
	if f.closed.Load() {
		return fmt.Errorf("perfbench feed: %w", source.ErrClosedSource)
	}
	var now int64
	if f.pulled == 0 || f.traced {
		now = obs.Nanotime()
	}
	if f.pulled == 0 {
		f.firstPull = now
		close(f.started)
	}
	if f.traced && f.pulled > 0 {
		gap := now - f.lastReturn
		if f.boundary {
			f.flushGaps = append(f.flushGaps, gap)
		} else {
			f.feedNanos += gap
			f.feedGaps++
		}
	}
	if f.pulled == f.limit {
		// The final bin closes at the end of the stream: now in a closed
		// loop, when its end is due in an open loop.
		if f.speed > 0 {
			if err := f.waitUntil(f.due(f.end)); err != nil {
				return err
			}
			f.setClose(f.cur, f.due(f.end))
		} else {
			f.setClose(f.cur, obs.Nanotime())
		}
		return io.EOF
	}
	err := f.inner.Next(p)
	if f.traced {
		ret := obs.Nanotime()
		f.nextNanos += ret - now
		f.nextCalls++
	}
	if err != nil {
		return err
	}
	f.pulled++
	f.boundary = p.Time >= f.end
	if f.boundary {
		closed := f.cur
		f.cur = int64(math.Floor(p.Time / f.bin))
		f.end = float64(f.cur+1) * f.bin
		if f.speed > 0 {
			f.setClose(closed, f.due(float64(closed+1)*f.bin))
		} else {
			f.setClose(closed, obs.Nanotime())
		}
	}
	if f.speed > 0 {
		due := f.due(p.Time)
		if err := f.waitUntil(due); err != nil {
			return err
		}
		f.lastReturn = obs.Nanotime()
		f.recordLag(f.lastReturn - due)
		return nil
	}
	if f.traced {
		f.lastReturn = obs.Nanotime()
	}
	return nil
}

func (f *feed) setClose(b int64, at int64) {
	if b >= 0 && b < int64(len(f.closes)) {
		f.closes[b] = at
	}
}

// waitUntil holds the open-loop generator until the wall time at. It
// sleeps only when at is more than paceSlack away and otherwise releases
// the packet at once, so the generator never spins on the gaps between
// packets (4-5 µs at the offered rate).
func (f *feed) waitUntil(at int64) error {
	d := at - obs.Nanotime()
	if d <= int64(paceSlack) {
		return nil
	}
	f.timer.Reset(time.Duration(d))
	select {
	case <-f.timer.C:
		return nil
	case <-f.done:
		f.timer.Stop()
		return fmt.Errorf("perfbench feed: paced wait: %w", source.ErrClosedSource)
	}
}

// Close implements source.PacketSource; it unblocks a paced wait.
func (f *feed) Close() error {
	f.closed.Store(true)
	f.closeOnce.Do(func() { close(f.done) })
	return f.inner.Close()
}

// genLagLimit bounds the open-loop generator's lateness against a null
// consumer over the last tenth of a cycle (median). A generator that
// keeps up is late only by timer wake-up (about a millisecond) and
// transient stalls it recovers from; one that cannot hold the offered
// rate falls further behind with every packet, so by the end of the
// cycle its typical lateness is far past this.
const genLagLimit = 10 * time.Millisecond

// holdsRate reports whether calibration lags show the generator keeping
// up with its schedule, and the median lateness of the final tenth.
func holdsRate(lags []int32) (bool, float64) {
	tail := slices.Clone(lags[len(lags)*9/10:])
	m := quantile(tail, 0.5)
	return m <= float64(genLagLimit), m
}

// calibration is the open-loop generator's own lateness against a null
// consumer: the floor under reader_lag_p99_ms.
type calibration struct {
	p99   float64 // nanoseconds
	n     int
	holds bool
	// late is the median lateness of the cycle's final tenth, in
	// nanoseconds (see holdsRate).
	late float64
}

// calibrate runs one cycle of the open-loop generator against a null
// consumer that discards every packet at once, recording its lateness
// per packet into lagBuf.
func calibrate(w workload, in *input, lagBuf []int32) (calibration, error) {
	runtime.GC()
	f, err := newFeed(w, in, 1, in.packets, false, lagBuf)
	if err != nil {
		return calibration{}, err
	}
	defer f.Close()
	var p packet.Packet
	for {
		if err := f.Next(&p); err != nil {
			if !errors.Is(err, io.EOF) {
				return calibration{}, err
			}
			break
		}
	}
	c := calibration{n: len(f.lags)}
	c.holds, c.late = holdsRate(f.lags)
	c.p99 = quantile(f.lags, 0.99)
	return c, nil
}
