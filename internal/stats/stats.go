// Package stats provides the small set of descriptive statistics used by the
// experiment harness: means, extrema and ratio summaries over repeated runs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	Count  int
	Mean   float64
	Min    float64
	Max    float64
	Median float64
	StdDev float64
}

// Summarize computes a Summary of the values.  An empty sample yields a zero
// Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(values), Min: values[0], Max: values[0]}
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	varSum := 0.0
	for _, v := range values {
		d := v - s.Mean
		varSum += d * d
	}
	if len(values) > 1 {
		s.StdDev = math.Sqrt(varSum / float64(len(values)-1))
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f", s.Count, s.Mean, s.Min, s.Max)
}

// Ratio returns a/b, or 1 when both are zero and +Inf when only b is zero.
// Elapsed-time and stall-time ratios against an optimum of zero are handled
// this way throughout the harness.
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}
