// Command perfbench is the repository's benchmark. It runs the flowrankd
// daemon in-process over generated sprint5 traffic and reports what a
// user of the monitor sees (throughput, bin latency, reader lag, scrape
// latency, CPU, allocation, memory and set-up time) or, with --trace 1,
// the per-layer figures that explain them. Every run checks the daemon's
// outputs and exits non-zero when they are wrong.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. The full result, with sample
// counts and the environment, and a traced run's spans are written under
// .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flowrank/internal/obs"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// outDir receives the result and span files, relative to the repository
// root the benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := workloadByName(opts.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(w, opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.report(stdout, outDir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "replay", "workload: replay, live or adapt")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed of the generated traffic")
	fs.IntVar(&o.seconds, "seconds", 30, "seconds of measured rounds (at least one round runs)")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// result is one run: its environment, rounds, checks and metrics.
type result struct {
	w       workload
	opts    options
	env     map[string]any
	rounds  []*round
	verdict verdict
	metrics []metric
	spans   []span
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Gated metrics are the ones BENCHMARK.json lists; the others are
	// printed and stored but not part of the result line.
	Gated bool `json:"gated"`
}

func (r *result) correct() bool { return len(r.verdict.problems) == 0 }

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, N: n, Gated: true})
}

// note records a metric that is reported but not gated.
func (r *result) note(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

// process reads the process-wide counters a run's cost metrics are
// deltas of.
type process struct {
	cpu                   time.Duration
	alloc, gcs, gcPauseNs uint64
}

func readProcess() process {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return process{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:     ms.TotalAlloc,
		gcs:       uint64(ms.NumGC),
		gcPauseNs: ms.PauseTotalNs,
	}
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// set (VmHWM) and returns the resident set it restarts from (VmRSS).
func resetPeakRSS() (int64, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return procStatus("VmRSS")
}

// procStatus reads a size field of /proc/self/status, such as VmHWM (the
// peak resident set since the last resetPeakRSS), in bytes.
func procStatus(field string) (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kib, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, v, err)
			}
			return kib * 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// measure generates the workload's input, times the set-up probes, then
// runs rounds until the measured seconds are spent. A traced run
// alternates traced and untraced rounds so it can state the tracing cost.
func measure(w workload, opts options) (*result, error) {
	in, err := makeInput(w, opts.seed)
	if err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	res := &result{w: w, opts: opts, env: map[string]any{
		"workload":   w.name,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"packets":    in.packets * int64(w.cycles),
		"bins":       w.binsPerCycle() * w.cycles,
	}}
	// One buffer takes every open-loop round's reader lags in turn.
	var lagBuf []int32
	var gen calibration
	if w.speed > 0 {
		lagBuf = make([]int32, 0, in.packets*int64(w.cycles))
		if gen, err = calibrate(w, in, lagBuf); err != nil {
			return nil, fmt.Errorf("calibrating the generator: %w", err)
		}
	}
	setups := make([]int64, 0, setupProbes)
	for range setupProbes {
		ns, err := probeSetup(w, in, lagBuf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ns)
	}
	// A warm-up round lets the heap, caches and lazy set-up settle; it is
	// checked like every round but not measured. Adapt's single-cycle
	// rounds are nearly all model refit, which has nothing to warm.
	var warm *round
	if w.cycles > 1 {
		if warm, err = runRound(w, in, 1, false, lagBuf); err != nil {
			return nil, err
		}
	}
	deadline := obs.Nanotime() + int64(opts.seconds)*1e9
	for i := 0; ; i++ {
		traced := opts.trace && i%2 == 0
		r, err := runRound(w, in, w.cycles, traced, lagBuf)
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, r)
		if obs.Nanotime() >= deadline && (!opts.trace || i%2 == 1) {
			break
		}
	}
	res.env["rounds"] = len(res.rounds)
	res.check(warm)
	if w.speed > 0 && !gen.holds {
		res.verdict.problem("the generator alone cannot hold %g pkts/s: against a null consumer it ends a cycle %.3f ms late",
			w.offeredRate(in), gen.late/1e6)
	}
	if opts.trace {
		res.layerMetrics()
	} else {
		res.endToEndMetrics(setups, gen)
	}
	return res, nil
}

// check runs the output check on the warm-up round, if any, and every
// measured round, and compares the measured rounds' digests with each
// other and, for the default seed, with the pinned one.
func (r *result) check(warm *round) {
	checked := r.rounds
	if warm != nil {
		checked = append([]*round{warm}, checked...)
	}
	var first string
	for i, rd := range checked {
		v := checkRound(r.w, rd)
		r.verdict.attempted += v.attempted
		r.verdict.failed += v.failed
		for _, p := range v.problems {
			r.verdict.problem("round %d: %s", i, p)
		}
		switch {
		case rd == warm:
		case first == "":
			first = v.digest
		case v.digest != first:
			r.verdict.problem("round %d: digest %s differs from the first measured round's %s", i, v.digest, first)
		}
	}
	r.verdict.digest = first
	if pinned, ok := defaultDigests[r.w.name]; ok && r.opts.seed == defaultSeed && first != pinned {
		r.verdict.problem("digest %s differs from the pinned %s for seed %d", first, pinned, defaultSeed)
	}
}

// endToEndMetrics derives the user-visible metrics from untraced rounds.
// Rates, costs, peak memory and the reader's p99 lag are medians over
// rounds, so a burst of interference from outside the benchmark moves one
// round, not the figure.
func (r *result) endToEndMetrics(setups []int64, gen calibration) {
	var tput, cpu, alloc, rss, binLat, scrape, lagP99 []float64
	lags := 0
	for _, rd := range r.rounds {
		mpkts := float64(rd.feed.pulled) / 1e6
		tput = append(tput, throughput([]*round{rd}))
		cpu = append(cpu, rd.cpu.Seconds()/mpkts)
		alloc = append(alloc, float64(rd.alloc)/1e6/mpkts)
		rss = append(rss, float64(rd.peakRSS)/1e6)
		for _, b := range rd.bins {
			if b.rec.Bin >= 0 && b.rec.Bin < int64(len(rd.feed.closes)) {
				binLat = append(binLat, float64(b.at-rd.feed.closes[b.rec.Bin])/1e6)
			}
		}
		for _, s := range rd.scrapes {
			if s.ok {
				scrape = append(scrape, float64(s.end-s.start)/1e6)
			}
		}
		lagP99 = append(lagP99, rd.lagP99)
		lags += rd.lagN
	}
	rounds := len(r.rounds)
	r.add("throughput_pps", quantile(tput, 0.5), "1/s", rounds)
	r.add("bin_latency_p50_ms", quantile(binLat, 0.5), "ms", len(binLat))
	// BENCHMARK.json gates only metrics every workload reports. A p90
	// needs ten bins beyond it, which adapt's handful of bins lacks; reader
	// lag and scrape latency exist only in the open loop, where packets
	// have due times and /metrics is scraped on a schedule.
	if len(binLat) >= 100 {
		r.note("bin_latency_p90_ms", quantile(binLat, 0.9), "ms", len(binLat))
	}
	if r.w.speed > 0 {
		r.note("reader_lag_p99_ms", quantile(lagP99, 0.5)/1e6, "ms", lags)
		r.note("generator_lag_p99_ms", gen.p99/1e6, "ms", gen.n)
		r.note("scrape_p50_ms", quantile(scrape, 0.5), "ms", len(scrape))
		r.note("scrape_p90_ms", quantile(scrape, 0.9), "ms", len(scrape))
	}
	r.add("cpu_s_per_mpkt", quantile(cpu, 0.5), "s", rounds)
	r.add("alloc_mb_per_mpkt", quantile(alloc, 0.5), "MB", rounds)
	r.add("peak_rss_mb", quantile(rss, 0.5), "MB", rounds)
	r.add("setup_s", quantile(setups, 0.5)/1e9, "s", len(setups))
	frac := 0.0
	if r.verdict.attempted > 0 {
		frac = float64(r.verdict.failed) / float64(r.verdict.attempted)
	}
	r.note("failed_fraction", frac, "ratio", r.verdict.attempted)
}

// report prints the human-readable table, writes the result and span
// files, and prints the result line last.
func (r *result) report(stdout io.Writer, dir string) error {
	fmt.Fprintf(stdout, "perfbench %s\n", envLine(r.env))
	fmt.Fprintf(stdout, "%-32s %16s  %-6s %8s\n", "metric", "value", "unit", "n")
	for _, m := range r.metrics {
		fmt.Fprintf(stdout, "%-32s %16.6g  %-6s %8d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if r.opts.trace {
		printLayerMap(stdout)
		printSelfTimes(stdout, r.spans)
	}
	if r.correct() {
		fmt.Fprintf(stdout, "check: ok (%d attempted, %d failed) digest %s\n",
			r.verdict.attempted, r.verdict.failed, r.verdict.digest)
	} else {
		for _, p := range r.verdict.problems {
			fmt.Fprintln(stdout, "check failed:", p)
		}
	}
	if err := r.writeFiles(dir); err != nil {
		return err
	}
	gated := map[string]any{}
	for _, m := range r.metrics {
		if !m.Gated {
			continue
		}
		gated[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": max(r.verdict.attempted, 1),
		"failed":    r.verdict.failed,
		"metrics":   gated,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func envLine(env map[string]any) string {
	keys := []string{"workload", "seed", "seconds", "trace", "go", "nproc", "gomaxprocs", "workers", "packets", "bins", "rounds"}
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%v", k, env[k])
	}
	return s[1:]
}

// writeFiles stores the full result (environment, metrics with sample
// counts, check) and, for traced runs, the spans.
func (r *result) writeFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.w.name, r.opts.seed, btoi(r.opts.trace)))
	doc, err := json.MarshalIndent(map[string]any{
		"env":      r.env,
		"metrics":  r.metrics,
		"correct":  r.correct(),
		"problems": r.verdict.problems,
		"digest":   r.verdict.digest,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	if !r.opts.trace {
		return nil
	}
	return writeSpans(base+".spans.jsonl", r.spans)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
