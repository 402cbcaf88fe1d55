package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if math.Abs(s.StdDev-1.2909944487) > 1e-6 {
		t.Fatalf("stddev = %f", s.StdDev)
	}
	odd := Summarize([]float64{3, 1, 2})
	if odd.Median != 2 {
		t.Fatalf("median = %f", odd.Median)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
	if s.String() == "" {
		t.Fatalf("empty String")
	}
	one := Summarize([]float64{7})
	if one.StdDev != 0 || one.Median != 7 {
		t.Fatalf("single-value summary %+v", one)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Errorf("Ratio(6,3) wrong")
	}
	if Ratio(0, 0) != 1 {
		t.Errorf("Ratio(0,0) should be 1")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Errorf("Ratio(1,0) should be +Inf")
	}
}

// TestSummarizeProperties checks with testing/quick that the summary respects
// Min <= Median <= Max and Min <= Mean <= Max for arbitrary samples.
func TestSummarizeProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		s := Summarize(vals)
		return s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Count == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
