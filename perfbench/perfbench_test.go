package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// tiny shrinks a workload to a few bins so a test runs it through the
// same code in seconds. The name changes too, so no pinned digest applies.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.name += "-tiny"
	w.cycles = 2
	w.window = 2 * w.bin
	if w.adapt > 0 {
		// Each adaptive refit takes seconds whatever the bin holds.
		w.window, w.cycles = w.bin, 1
	}
	if raceEnabled && w.speed > 0 {
		// Under -race the generator's calibration would rightly report
		// that it cannot hold the full offered rate.
		w.speed = 2
	}
	return w
}

// benchmarkSpec reads the units of the metrics BENCHMARK.json gates, by
// name.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(es []entry) map[string]string {
		m := map[string]string{}
		for _, e := range es {
			m[e.Name] = e.Unit
		}
		return m
	}
	return units(spec.EndToEnd), units(spec.PerLayer)
}

// lastLine runs the report and decodes its final line.
func lastLine(t *testing.T, res *result) map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	if err := res.report(&out, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	return line
}

func metricUnits(t *testing.T, line map[string]json.RawMessage) map[string]string {
	t.Helper()
	var ms map[string]struct {
		Value *float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for name, m := range ms {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks a value or unit", name)
		}
		units[name] = m.Unit
	}
	return units
}

// TestWorkloadsTiny runs every workload end to end at a tiny size with a
// seed other than the default: the outputs must pass every invariant and
// the result line must carry exactly the metrics BENCHMARK.json names,
// in its units.
func TestWorkloadsTiny(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, name := range []string{"replay", "live", "adapt"} {
		for _, trace := range []bool{false, true} {
			if trace && name != "replay" && testing.Short() {
				continue
			}
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				w := tiny(t, name)
				res, err := measure(w, options{seed: 7, seconds: 1, trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("check failed: %v", res.verdict.problems)
				}
				line := lastLine(t, res)
				if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil ||
					line["failed"] == nil || line["metrics"] == nil {
					t.Errorf("result line keys: %v", line)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if got := metricUnits(t, line); !maps.Equal(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
				for _, rd := range res.rounds {
					if w.speed > 0 && (rd.feed.lags != nil || rd.lagN == 0) {
						t.Errorf("round kept %d reader lags, p99 over %d", len(rd.feed.lags), rd.lagN)
					}
				}
				if !trace {
					for _, m := range res.metrics {
						if m.Gated && !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestCheckRejectsPerturbed perturbs each output the check covers and
// expects it to fail.
func TestCheckRejectsPerturbed(t *testing.T) {
	w := tiny(t, "replay")
	in, err := makeInput(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRound(w, in, w.cycles, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := r.want
	good := checkRound(w, r)
	if len(good.problems) != 0 {
		t.Fatalf("unperturbed round failed: %v", good.problems)
	}
	clone := func() *round {
		c := *r
		c.bins = slices.Clone(r.bins)
		c.grams = slices.Clone(r.grams)
		return &c
	}
	cases := map[string]func(c *round){
		"orig_packets": func(c *round) { c.bins[1].rec.OrigPackets++ },
		"missing bin":  func(c *round) { c.bins = c.bins[1:] },
		"ingested": func(c *round) {
			c.final = map[string]float64{"flowrankd_packets_ingested_total": float64(want - 1)}
		},
		"lost datagram": func(c *round) { c.grams = c.grams[1:] },
		"netflow record": func(c *round) {
			g := c.grams[0]
			g.recs = slices.Clone(g.recs)
			g.recs[0].Packets++
			c.grams[0] = g
		},
	}
	for name, perturb := range cases {
		t.Run(name, func(t *testing.T) {
			c := clone()
			perturb(c)
			v := checkRound(w, c)
			if len(v.problems) == 0 && v.digest == good.digest {
				t.Errorf("perturbed output passed the check with the same digest")
			}
		})
	}
	// A digest change alone must fail a run when the digest is pinned.
	defaultDigests[w.name] = "0000"
	defer delete(defaultDigests, w.name)
	res, err := measure(w, options{seed: defaultSeed, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() {
		t.Error("a digest differing from the pinned one passed")
	}
}

func TestParseFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		if _, err := parseFlags(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, err := parseFlags([]string{"--workload", "live", "--seed", "9", "--seconds", "3", "--trace", "1"}, &bytes.Buffer{})
	if err != nil || o.workload != "live" || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
}

func TestQuantileAndSelfTime(t *testing.T) {
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median = %g, want 2.5", q)
	}
	spans := []span{
		{Name: "bin", Start: 0, End: 100},
		{Name: "flush", Parent: "bin", Start: 0, End: 60},
		{Name: "emit", Parent: "bin", Start: 50, End: 90},
	}
	st := selfTimes(spans)
	if st["bin"].self != 10 || st["flush"].self != 60 || st["emit"].self != 40 {
		t.Errorf("self times = %+v", st)
	}
}

// TestHoldsRate: a generator that falls further behind fails the
// calibration; one with a transient stall it recovers from passes.
func TestHoldsRate(t *testing.T) {
	behind := make([]int32, 1000)
	spike := make([]int32, 1000)
	for i := range behind {
		behind[i] = int32(i) * 50_000 // 50 µs later per packet
		spike[i] = 500_000
	}
	for i := 400; i < 420; i++ {
		spike[i] = 40_000_000
	}
	if ok, _ := holdsRate(behind); ok {
		t.Error("a generator falling behind held the rate")
	}
	if ok, late := holdsRate(spike); !ok {
		t.Errorf("a transient stall failed the calibration (%.3f ms late)", late/1e6)
	}
}
