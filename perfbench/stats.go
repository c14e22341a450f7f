package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples the reported tail percentile must
// leave above it.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile of xs that still has
// at least tailBeyond samples above it, with that percentile. The value
// is the (tailBeyond+1)-th largest sample, at percentile
// 100·(n−tailBeyond)/n. With tailBeyond or fewer samples no percentile
// qualifies, and the maximum is returned at percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pctStr renders a tail percentile compactly (p90, p83.3).
func pctStr(p float64) string {
	if p == math.Trunc(p) {
		return formatFloat(p, 0)
	}
	return formatFloat(p, 1)
}
