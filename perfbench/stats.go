package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule,
// or NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowed splits xs (in time order) into k consecutive windows and
// returns the lower quartile of the windows' q-quantiles. Interference
// from outside the benchmark (other tenants, CPU steal) only ever adds
// time, and on a shared host it comes and goes over seconds: the lower
// quartile reads the stretches it spared, while a change to the program
// moves every window.
func windowed(xs []float64, k int, q float64) float64 {
	if len(xs) < k {
		return quantile(xs, q)
	}
	per := make([]float64, k)
	for w := 0; w < k; w++ {
		per[w] = quantile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q)
	}
	return quantile(per, 0.25)
}

// windowsFor is how many windows n samples taken over d are split into:
// about one a second, at least 7, and at least minPerWindow samples in
// each where there are enough.
func windowsFor(n int, d time.Duration) int {
	const minPerWindow = 10
	return max(7, min(int(d.Seconds()), n/minPerWindow))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
