package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowrank/internal/daemon"
	"flowrank/internal/invert"
	"flowrank/internal/netflow"
	"flowrank/internal/obs"
)

// The bench observes the daemon only through its public surfaces: the
// bin journal, the NetFlow export and /metrics.

// binObs is one journal record and the moment it reached the bench.
type binObs struct {
	rec daemon.BinRecord
	at  int64
	// left is when the journal handler returned.
	left int64
}

// journal is the bench's slog.Handler for Config.Journal: it keeps every
// bin record with its arrival time and signals when want records came.
type journal struct {
	mu   sync.Mutex
	bins []binObs
	want int
	full chan struct{}
}

func newJournal(want int) *journal {
	return &journal{want: want, full: make(chan struct{})}
}

func (j *journal) Enabled(context.Context, slog.Level) bool { return true }
func (j *journal) WithAttrs([]slog.Attr) slog.Handler       { return j }
func (j *journal) WithGroup(string) slog.Handler            { return j }

func (j *journal) Handle(_ context.Context, r slog.Record) error {
	at := obs.Nanotime()
	r.Attrs(func(a slog.Attr) bool {
		rec, ok := a.Value.Any().(daemon.BinRecord)
		if !ok {
			return true
		}
		j.mu.Lock()
		j.bins = append(j.bins, binObs{rec: rec, at: at, left: obs.Nanotime()})
		if len(j.bins) == j.want {
			close(j.full)
		}
		j.mu.Unlock()
		return false
	})
	return nil
}

func (j *journal) records() []binObs {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]binObs(nil), j.bins...)
}

// gram is one datagram received by the NetFlow sink.
type gram struct {
	at   int64
	hdr  netflow.Header
	recs []netflow.Record
}

// sink is the NetFlow collector the daemon exports to.
type sink struct {
	conn *net.UDPConn
	mu   sync.Mutex
	got  []gram
	bad  int
	done chan struct{}
}

func newSink() (*sink, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("netflow sink: %w", err)
	}
	// Generous buffering: a burst of export datagrams must not be dropped
	// by the kernel while this goroutine is descheduled.
	_ = conn.SetReadBuffer(4 << 20)
	s := &sink{conn: conn, done: make(chan struct{})}
	go s.loop()
	return s, nil
}

func (s *sink) loop() {
	defer close(s.done)
	buf := make([]byte, 64<<10)
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			return // closed
		}
		at := obs.Nanotime()
		hdr, recs, err := netflow.DecodeDatagram(buf[:n])
		s.mu.Lock()
		if err != nil {
			s.bad++
		} else {
			s.got = append(s.got, gram{at: at, hdr: hdr, recs: recs})
		}
		s.mu.Unlock()
	}
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got) + s.bad
}

// stop closes the socket and waits for the reader goroutine.
func (s *sink) stop() {
	s.conn.Close()
	<-s.done
}

// scrapeObs is one GET /metrics.
type scrapeObs struct {
	start, end int64
	bytes      int
	ok         bool
}

// scraper GETs /metrics over one keep-alive connection at a fixed
// interval, like a Prometheus server would.
type scraper struct {
	client  *http.Client
	url     string
	stopCh  chan struct{}
	done    chan struct{}
	started bool
	got     []scrapeObs
}

func newScraper(addr string) *scraper {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &scraper{
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		url:    "http://" + addr + "/metrics",
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func (s *scraper) start() {
	s.started = true
	go func() {
		defer close(s.done)
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				s.get()
			}
		}
	}()
}

// get scrapes /metrics once and records the scrape.
func (s *scraper) get() ([]byte, error) {
	start := obs.Nanotime()
	page, err := s.fetch()
	s.got = append(s.got, scrapeObs{start: start, end: obs.Nanotime(), bytes: len(page), ok: err == nil})
	return page, err
}

func (s *scraper) fetch() ([]byte, error) {
	resp, err := s.client.Get(s.url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return body, nil
}

// parseMetrics reads the unlabeled samples of a Prometheus text page;
// histograms contribute their _sum and _count series.
func parseMetrics(page []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// timedInverter wraps the workload's estimator to time each per-bin
// inversion; the daemon calls it once per bin on the reader goroutine.
type timedInverter struct {
	est   invert.Estimator
	calls []invCall
}

type invCall struct {
	start, end int64
	failed     bool
}

func (t *timedInverter) Name() string { return t.est.Name() }

func (t *timedInverter) Invert(counts []float64, p float64) (invert.Estimate, error) {
	start := obs.Nanotime()
	e, err := t.est.Invert(counts, p)
	t.calls = append(t.calls, invCall{start: start, end: obs.Nanotime(), failed: err != nil})
	return e, err
}

// finalGet stops the ticker and scrapes once more over the same
// connection.
func (s *scraper) finalGet() ([]byte, error) {
	if s.started {
		close(s.stopCh)
		<-s.done
	}
	defer s.client.CloseIdleConnections()
	return s.get()
}
