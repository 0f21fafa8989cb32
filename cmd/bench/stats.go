package main

import (
	"math"
	"sort"
)

// stat is one reported metric: the figure itself (the median of the
// run's samples) with the quartiles and sample count that say how much
// to trust it.
type stat struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Raw is Value before the machine-speed correction (see calibrate.go).
	Raw float64 `json:"raw"`
}

// summarize reduces samples to a stat. A count the API returned once is
// simply a one-sample stat.
func summarize(unit string, samples []float64) stat {
	q1, med, q3 := quartiles(samples)
	return stat{Unit: unit, Value: med, Q1: q1, Q3: q3, N: len(samples)}
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method Python's statistics.quantiles(v, n=4) uses — the
// acceptance check computes its spreads with that function, so -compare
// must agree with it to the digit. Fewer than two samples have no
// spread: all three are the sample (or 0).
func quartiles(v []float64) (q1, med, q3 float64) {
	switch len(v) {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is compared against.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}

// percentile returns the p-quantile (0..1) of v by nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
