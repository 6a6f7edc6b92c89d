package core

import (
	"fmt"
	"math"
	"testing"

	"flowrank/internal/dist"
	"flowrank/internal/numeric"
)

// twoPassRequiredRate is the solve requiredRate replaced, kept as the
// oracle: a pre-check at pLo itself, then Brent evaluating both bracket
// ends again.
func twoPassRequiredRate(metric func(float64) float64, target float64) (float64, error) {
	const (
		pLo = 1e-6
		pHi = 1 - 1e-9
	)
	if metric(pLo) <= target {
		return pLo, nil
	}
	f := func(lp float64) float64 {
		return math.Log(metric(math.Exp(lp))+1e-300) - math.Log(target)
	}
	lo, hi := math.Log(pLo), math.Log(pHi)
	if f(hi) > 0 {
		return 0, fmt.Errorf("metric still above target %g at p≈1", target)
	}
	lp, err := numeric.Brent(f, lo, hi, 1e-6)
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// TestRequiredRateEvaluatesEachRateOnce: with a counting metric, no rate
// is evaluated twice, and the root matches the two-pass solve bit for
// bit.
func TestRequiredRateEvaluatesEachRateOnce(t *testing.T) {
	// Decreasing in p, spanning many decades like the swapped-pair
	// metrics do.
	curve := func(p float64) float64 { return 1e-3 + 1e4*math.Pow(1-p, 3)/(p+1e-3) }
	for _, target := range []float64{0.5, 1, 30, 1e3} {
		seen := make(map[float64]int)
		counting := func(p float64) float64 {
			seen[p]++
			return curve(p)
		}
		got, err := requiredRate(counting, target)
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		for p, n := range seen {
			if n > 1 {
				t.Errorf("target %g: metric evaluated %d times at p = %v", target, n, p)
			}
		}
		want, err := twoPassRequiredRate(curve, target)
		if err != nil {
			t.Fatalf("target %g: oracle: %v", target, err)
		}
		if got != want {
			t.Errorf("target %g: rate %v, two-pass solve %v", target, got, want)
		}
	}
	// The early exits agree too: target met at the floor, and unreachable.
	if got, err := requiredRate(curve, 1e8); err != nil || got != 1e-6 {
		t.Errorf("reachable at the floor: %v, %v", got, err)
	}
	if _, err := requiredRate(curve, 1e-12); err == nil {
		t.Error("unreachable target solved")
	}
}

// TestHybridKernelHugeLargeSize: a larger flow size past 2^63 (the
// p = 1e-6 evaluations reach 1e24 in the outer integral) must not wrap to
// a 1-packet flow; a 300-packet flow against it is all but surely
// ranked correctly.
func TestHybridKernelHugeLargeSize(t *testing.T) {
	m := Model{N: 1000, T: 10, Dist: dist.ParetoWithMean(4.07, 1.384), Kernel: KernelHybrid}
	e := m.newEval(1e-6)
	for _, large := range []float64{1e19, 1e24, math.MaxFloat64} {
		if v := e.kernel(300, large); v > 1e-6 {
			t.Errorf("kernel(300, %g) at p=1e-6 = %g, want ≈0", large, v)
		}
	}
}

// BenchmarkRequiredRate times one adaptive refit's solve on a steady-state
// adapt-loop population: the Parametric estimate of a sprint5 bin (N =
// 27712 flows, Pareto mean 4.07, β = 1.384), top-10, ranking target 1.
func BenchmarkRequiredRate(b *testing.B) {
	m := Model{
		N:            27712,
		T:            10,
		Dist:         dist.ParetoWithMean(4.07, 1.384),
		PoissonTails: true,
		Kernel:       KernelHybrid,
	}
	for i := 0; i < b.N; i++ {
		if _, err := m.RequiredRate(1, false); err != nil {
			b.Fatal(err)
		}
	}
}
