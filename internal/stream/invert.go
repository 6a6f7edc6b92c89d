package stream

import "flowrank/internal/invert"

// InversionCheckpoints are the upper-tail probabilities at which every
// InversionSummary reports the estimated size quantiles: the median, the
// top decile, the top percent, and the top 0.1% — the body-to-tail
// checkpoints a monitor operator reads off a CCDF plot.
var InversionCheckpoints = [4]float64{0.5, 0.1, 0.01, 0.001}

// InversionSummary is the per-bin output of the optional inversion stage:
// the bin's sampled per-flow packet counts run through the configured
// invert.Estimator at the sampler's rate, summarized as scalars so the
// result is cheap to keep per bin. It obeys the engine's determinism
// contract — bit-identical for any worker count and batch size — because
// the input is the merged multiset of sampled counts (estimators are
// order-invariant) and the estimate is reduced to checkpoints in a fixed
// order.
type InversionSummary struct {
	// Method names the estimator ("naive", "tail", "em", "parametric").
	Method string
	// Mean is the estimated mean original flow size in packets.
	Mean float64
	// TailIndex is the fitted Pareto tail exponent (0 when not
	// identifiable).
	TailIndex float64
	// FlowCount estimates the number of original flows, including the
	// flows sampling missed.
	FlowCount float64
	// Quantiles are the estimated original size quantiles at the
	// upper-tail probabilities InversionCheckpoints.
	Quantiles [4]float64
	// Err carries the estimator's error when the bin could not be
	// inverted (for example too few sampled flows for a tail fit); the
	// other fields are zero then.
	Err string
	// Estimate is the full inversion result the scalars above were read
	// from, including the estimated size distribution — what a closed
	// control loop (flowtop -adapt) feeds into
	// adaptive.Controller.RecommendEstimate without inverting the bin a
	// second time. Nil when Err is set. Like every other field it is a
	// pure function of the merged multiset of sampled counts, so it keeps
	// the bit-identical-across-workers contract.
	Estimate *invert.Estimate
}

// summarizeInversion runs the estimator over the bin's sampled counts,
// the concatenation of the shards' sampled-table count multisets. The
// concatenation order does not matter: estimators canonicalize their
// input, so the summary depends only on the multiset of counts.
func summarizeInversion(est invert.Estimator, sums []shardSummary, rate float64) *InversionSummary {
	s := &InversionSummary{Method: est.Name()}
	n := 0
	for i := range sums {
		n += len(sums[i].sampCounts)
	}
	if n == 0 {
		s.Err = "no sampled flows"
		return s
	}
	counts := make([]float64, 0, n)
	for i := range sums {
		for _, c := range sums[i].sampCounts {
			counts = append(counts, float64(c))
		}
	}
	e, err := est.Invert(counts, rate)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Mean = e.Mean
	s.TailIndex = e.TailIndex
	s.FlowCount = e.FlowCount
	s.Estimate = &e
	for i, u := range InversionCheckpoints {
		s.Quantiles[i] = e.Dist.QuantileCCDF(u)
	}
	return s
}
