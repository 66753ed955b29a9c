package main

import (
	"math"
	"sort"
)

// summary is one metric's distribution over the samples a run
// collected: the median with its quartiles, the highest percentile that
// still has at least ten samples beyond it, and the sample count.
type summary struct {
	Unit    string  `json:"unit"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct int     `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	N       int     `json:"n"`
	// Rounds holds one value per round, the median of that round's
	// samples. compare judges spread on these: they vary with noise
	// between rounds, not with the mix of jobs or reports inside one.
	Rounds []float64 `json:"rounds"`
}

// summarize computes a summary over every sample of every round.
func summarize(unit string, rounds [][]float64) summary {
	s := summary{Unit: unit}
	var all []float64
	for _, xs := range rounds {
		if len(xs) > 0 {
			all = append(all, xs...)
			s.Rounds = append(s.Rounds, median(xs))
		}
	}
	s.N = len(all)
	if s.N == 0 {
		return s
	}
	s.Median = median(all)
	s.Q1, s.Q3 = quartiles(all)
	s.TailPct, s.Tail = tail(all)
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle
// values for an even count, and NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive":
// positions i*(n+1)/4, interpolated, clamped to the data), so the
// spreads fhbench prints match what that function reports.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tail returns the highest percentile of xs that has at least ten
// samples above it, as a nearest-rank value: with n samples it is the
// (n-10)th smallest, reported as percentile floor(100*(n-10)/n). Fewer
// than eleven samples have no such percentile (pct 0).
func tail(xs []float64) (pct int, v float64) {
	n := len(xs)
	if n <= 10 {
		return 0, 0
	}
	k := n - 10
	return 100 * k / n, sorted(xs)[k-1]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// nearestRank returns the q-quantile of xs by nearest rank.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return sorted(xs)[max(i, 0)]
}
