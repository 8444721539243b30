package main

import (
	"math"
	"sort"
)

// summary is the noise-aware form every repeated measurement is stored
// in: the raw per-repetition values, their median and quartiles, and
// the one Value reported for the run.
type summary struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summarize reports the median of values.
func summarize(unit string, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Unit: unit, Value: med, Median: med, Q1: q1, Q3: q3, Values: values}
}

// summarizeTimed reports the mean of the better half of values, for
// quantities that depend on how fast the host ran. On a shared host
// interference only ever makes a repetition slower, and it comes in
// bursts that can cover half a run: the median then measures the
// neighbours. The better half is what the program does when left alone,
// and averaging it uses every one of those repetitions. (Ten runs of
// each workload on a busy host: spread of the run medians 25-33%, of
// this 10-21%; on a quiet host both are 3-11%.)
func summarizeTimed(d metricDef, values []float64) summary {
	s := summarize(d.Unit, values)
	if len(values) < 2 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	half := sorted[:(len(sorted)+1)/2]
	if d.Better == "higher" {
		half = sorted[len(sorted)/2:]
	}
	if half[0] == half[len(half)-1] {
		s.Value = half[0] // a count that repeats must come out to the last bit, which a mean need not
		return s
	}
	var sum float64
	for _, v := range half {
		sum += v
	}
	s.Value = sum / float64(len(half))
	return s
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

// quartiles returns the first quartile, median and third quartile with
// the "exclusive" method Python's statistics.quantiles(values, n=4)
// uses, so a spread computed here matches one computed from the raw
// values by an outside checker. Samples of fewer than two values have
// no spread: all three are the single value.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return values[0], values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 { // cut point i of 4; rank i*(n+1)/4, clamped like Python
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
