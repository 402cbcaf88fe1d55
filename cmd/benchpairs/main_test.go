package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSummarizeQuartiles(t *testing.T) {
	s := summarize([]float64{9, 1, 5, 3, 7}) // sorted 1 3 5 7 9
	if s.q1 != 3 || s.median != 5 || s.q3 != 7 {
		t.Fatalf("quartiles of 1..9 odd = %+v, want 3, 5, 7", s)
	}
	s = summarize([]float64{1, 2, 3, 4}) // positions 0.75, 1.5, 2.25
	if s.q1 != 1.75 || s.median != 2.5 || s.q3 != 3.25 {
		t.Fatalf("quartiles of 1..4 = %+v, want 1.75, 2.5, 3.25", s)
	}
}

// TestCompareVerdict pins the win count (ties count for neither side) and
// the IQR rule in both better directions.
func TestCompareVerdict(t *testing.T) {
	parent := []float64{20, 21, 22, 23, 24} // median 22, IQR 2
	for _, tc := range []struct {
		name         string
		change       []float64
		higherBetter bool
		wins         int
		clears       bool
	}{
		{"lower, clears", []float64{17, 18, 19, 19, 20}, false, 5, true},
		{"lower, gap equals IQR", []float64{18, 19, 20, 21, 22}, false, 5, false},
		{"lower, ties", []float64{20, 21, 19, 18, 17}, false, 3, true},
		{"higher, clears", []float64{25, 26, 27, 28, 29}, true, 5, true},
		{"higher, worse", []float64{17, 18, 19, 19, 20}, true, 0, false},
	} {
		v := compare(parent, tc.change, tc.higherBetter)
		if v.wins != tc.wins || v.clearsIQR != tc.clears || v.pairs != len(parent) {
			t.Errorf("%s: wins %d of %d, clears %v; want %d, %v", tc.name, v.wins, v.pairs, v.clearsIQR, tc.wins, tc.clears)
		}
	}
}

// tempWriter returns a function that writes a file into a fresh temporary
// directory and returns its path.
func tempWriter(t *testing.T) func(name, body string) string {
	dir := t.TempDir()
	return func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
}

func TestMainPrintsEveryMetric(t *testing.T) {
	write := tempWriter(t)
	bench := write("bench.json", `{"end_to_end":[{"name":"rps","unit":"1/s","better":"higher"},{"name":"p50_ms","unit":"ms","better":"lower"}]}`)
	line := func(rps, p50 string, failed int, correct bool) string {
		c := "true"
		if !correct {
			c = "false"
		}
		return `{"correct":` + c + `,"attempted":10,"failed":` + string(rune('0'+failed)) +
			`,"metrics":{"rps":{"value":` + rps + `},"p50_ms":{"value":` + p50 + `}}}` + "\n"
	}
	parent := write("parent.jsonl", line("10", "5", 0, true)+line("11", "6", 1, true))
	change := write("change.jsonl", line("12", "4", 0, true)+line("13", "4", 0, false))
	var out strings.Builder
	if code := mainErr([]string{bench, parent, change}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"2 pairs", "rps", "p50_ms", "2/2", "parent: 1 of 20 ops failed, 0 of 2 runs", "change: 0 of 20 ops failed, 1 of 2 runs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if code := mainErr([]string{bench, parent, write("short.jsonl", line("1", "1", 0, true))}, &out); code != 2 {
		t.Fatalf("unpaired runs: exit %d, want 2", code)
	}
}

// TestMissingMetricFails pins that a run line without a declared metric
// stops the summary, naming the file, the line and the metric, instead of
// reading the metric as 0 (a win for every lower-is-better metric).
func TestMissingMetricFails(t *testing.T) {
	write := tempWriter(t)
	bench := write("bench.json", `{"end_to_end":[{"name":"rps","unit":"1/s","better":"higher"},{"name":"cpu_ms_per_op","unit":"ms","better":"lower"}]}`)
	full := `{"correct":true,"attempted":10,"failed":0,"metrics":{"rps":{"value":10},"cpu_ms_per_op":{"value":5}}}` + "\n"
	parent := write("parent.jsonl", full+full)
	for _, tc := range []struct{ name, second string }{
		{"absent", `{"correct":true,"attempted":10,"failed":0,"metrics":{"rps":{"value":12}}}` + "\n"},
		{"no value", `{"correct":true,"attempted":10,"failed":0,"metrics":{"rps":{"value":12},"cpu_ms_per_op":{}}}` + "\n"},
	} {
		change := write("change.jsonl", full+tc.second)
		var out strings.Builder
		if code := mainErr([]string{bench, parent, change}, &out); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		defs, err := loadDefs(bench)
		if err != nil {
			t.Fatal(err)
		}
		_, err = loadRuns(change, defs)
		if err == nil || !strings.Contains(err.Error(), change+":2:") || !strings.Contains(err.Error(), `"cpu_ms_per_op"`) {
			t.Errorf("%s: error %v, want it to name %s:2 and cpu_ms_per_op", tc.name, err, change)
		}
	}
}
