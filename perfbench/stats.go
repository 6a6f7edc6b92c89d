package main

import (
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It is 0 for no samples.
func quantile[T int32 | int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(i)
	return float64(xs[i]) + frac*float64(xs[i+1]-xs[i])
}
