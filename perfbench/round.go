package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"time"

	"flowrank/internal/daemon"
	"flowrank/internal/obs"
)

// roundTimeout bounds one round; a daemon that stops journaling fails
// the run instead of hanging it.
const roundTimeout = 90 * time.Second

// round is one daemon lifetime over a workload's fixed input.
type round struct {
	traced bool
	// cycles is how many window replays the round fed, want the packets
	// that makes.
	cycles int
	want   int64
	// feed holds what the bench's source stamped: packets pulled, the
	// first pull, bin closes and traced layer times.
	feed *feed
	// lagP99 is an open loop's p99 reader lag in nanoseconds over lagN
	// packets; the lags themselves go back to the run's buffer.
	lagP99 float64
	lagN   int
	// cpu, alloc, gcs and gcPause are the process's CPU time, heap
	// allocation, GC cycles and GC pause time over the round, after the
	// GC that precedes it.
	cpu     time.Duration
	alloc   uint64
	gcs     uint64
	gcPause time.Duration
	// peakRSS is the round's peak resident set in bytes above the floor
	// the bench holds between rounds (the encoded input, the lag buffer
	// and earlier rounds' observations).
	peakRSS int64
	last    int64 // final bin's journal record
	bins    []binObs
	grams   []gram
	badGram int
	scrapes []scrapeObs
	final   map[string]float64
	finalOK bool
	inv     []invCall
}

// session is a running daemon wired to the bench's observers.
type session struct {
	feed   *feed
	jr     *journal
	sink   *sink
	inv    *timedInverter
	d      *daemon.Daemon
	cancel context.CancelFunc
	runErr chan error
	newAt  int64
}

func start(w workload, in *input, cycles int, limit int64, traced bool, lagBuf []int32) (*session, error) {
	f, err := newFeed(w, in, cycles, limit, traced, lagBuf)
	if err != nil {
		return nil, err
	}
	s := &session{feed: f, jr: newJournal(w.binsPerCycle() * cycles)}
	cfg := daemon.Config{
		Source:      f,
		Rate:        w.rate,
		Seed:        1,
		TopT:        topT,
		BinSeconds:  w.bin,
		Workers:     workers,
		Tables:      w.tables,
		Inverter:    w.inverter,
		AdaptTarget: w.adapt,
		ListenAddr:  "127.0.0.1:0",
		Journal:     slog.New(s.jr),
	}
	if traced && w.inverter != nil {
		s.inv = &timedInverter{est: w.inverter}
		cfg.Inverter = s.inv
	}
	if s.sink, err = newSink(); err != nil {
		f.Close()
		return nil, err
	}
	cfg.NetFlowAddr = s.sink.conn.LocalAddr().String()
	s.newAt = obs.Nanotime()
	s.d, err = daemon.New(cfg)
	if err != nil {
		f.Close()
		s.sink.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.runErr = make(chan error, 1)
	go func() { s.runErr <- s.d.Run(ctx) }()
	return s, nil
}

// shutdown drains the daemon and stops the NetFlow sink.
func (s *session) shutdown() error {
	s.cancel()
	err := <-s.runErr
	s.sink.stop()
	return err
}

// probeSetup times one daemon set-up: daemon.New to the first pull.
func probeSetup(w workload, in *input, lagBuf []int32) (int64, error) {
	runtime.GC()
	s, err := start(w, in, 1, 1, false, lagBuf)
	if err != nil {
		return 0, err
	}
	select {
	case <-s.feed.started:
	case err := <-s.runErr:
		s.runErr <- err
	case <-time.After(roundTimeout):
	}
	ferr := s.shutdown()
	select {
	case <-s.feed.started:
	default:
		return 0, fmt.Errorf("setup probe: daemon never pulled a packet (run: %v)", ferr)
	}
	if ferr != nil {
		return 0, fmt.Errorf("setup probe: %w", ferr)
	}
	return s.feed.firstPull - s.newAt, nil
}

// runRound runs the daemon over cycles replays of in and collects what
// the bench observed, with the process's costs over the round. Each round
// and each set-up probe starts from a collected heap, so one daemon's
// garbage is not billed to the next; a round also returns that garbage to
// the kernel, so its peak resident set starts from the floor. An open
// loop records its reader lags into lagBuf (see newFeed).
func runRound(w workload, in *input, cycles int, traced bool, lagBuf []int32) (*round, error) {
	debug.FreeOSMemory()
	floor, err := resetPeakRSS()
	if err != nil {
		return nil, err
	}
	before := readProcess()
	s, err := start(w, in, cycles, in.packets*int64(cycles), traced, lagBuf)
	if err != nil {
		return nil, err
	}
	sc := newScraper(s.d.Addr())
	if w.speed > 0 {
		sc.start()
	}

	timeout := time.NewTimer(roundTimeout)
	defer timeout.Stop()
	var runErr error
	select {
	case <-s.jr.full:
	case runErr = <-s.runErr:
		s.runErr <- runErr
	case <-timeout.C:
	}
	r := &round{traced: traced, feed: s.feed, cycles: cycles, want: in.packets * int64(cycles)}
	// The final scrape reads the counters the checks compare; it follows
	// the final journal record, so they are complete.
	page, ferr := sc.finalGet()
	r.finalOK = ferr == nil
	r.final = parseMetrics(page)
	r.bins = s.jr.records()
	want := 0
	for _, b := range r.bins {
		if nf := b.rec.NetFlow; nf != nil {
			want += nf.Datagrams
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.sink.count() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	runErr = s.shutdown()
	r.grams, r.badGram = s.sink.got, s.sink.bad
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return nil, fmt.Errorf("daemon run: %w", runErr)
	}
	r.scrapes = sc.got
	if n := len(r.bins); n > 0 {
		r.last = r.bins[n-1].at
	}
	if s.inv != nil {
		r.inv = s.inv.calls
	}
	if w.speed > 0 {
		r.lagN = len(s.feed.lags)
		r.lagP99 = quantile(s.feed.lags, 0.99)
		s.feed.lags = nil
	}
	after := readProcess()
	peak, err := procStatus("VmHWM")
	if err != nil {
		return nil, err
	}
	r.peakRSS = peak - floor
	r.cpu = after.cpu - before.cpu
	r.alloc = after.alloc - before.alloc
	r.gcs = after.gcs - before.gcs
	r.gcPause = time.Duration(after.gcPauseNs - before.gcPauseNs)
	return r, nil
}
