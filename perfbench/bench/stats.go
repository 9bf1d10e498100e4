package bench

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a tail latency may be reported at,
// highest first; p99 is the highest so the metric keeps its name.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// Summary condenses one set of latency samples.
type Summary struct {
	// N is the sample count; failed interactions count, as +Inf.
	N int
	// P50 is the median.
	P50 float64
	// Tail is the latency at TailPct.
	Tail    float64
	TailPct float64
}

// TailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it, or 0 when there are too few samples for
// any.
func TailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p in n sorted
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// Percentile returns the nearest-rank percentile p of sorted samples.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// Summarize sorts samples in place and reports their median and tail.
// A failed interaction is passed as math.Inf(1): it misses every
// latency limit, so it sorts above every completed one.
func Summarize(samples []float64) Summary {
	sort.Float64s(samples)
	s := Summary{N: len(samples), TailPct: TailPercentile(len(samples))}
	if s.N == 0 {
		s.P50, s.Tail = math.NaN(), math.NaN()
		return s
	}
	s.P50 = Percentile(samples, 50)
	if s.TailPct > 0 {
		s.Tail = Percentile(samples, s.TailPct)
	} else {
		s.Tail = math.NaN()
	}
	return s
}

// Median returns the median of values (the mean of the middle two for
// an even count), leaving values unchanged.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
