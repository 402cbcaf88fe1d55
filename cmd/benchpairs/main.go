// Command benchpairs summarizes paired serving-benchmark runs of a parent
// and a change, as scripts/pairs.sh collects them.
//
// Usage:
//
//	benchpairs BENCHMARK.json PARENT.jsonl CHANGE.jsonl
//
// Each JSONL file holds one servebench result line per run, and line i of
// the two files is pair i.  For every end-to-end metric BENCHMARK.json
// declares, it prints each side's median and quartiles, how many pairs the
// change won (ties count for neither side), and whether the medians differ,
// in the metric's better direction, by more than the parent's interquartile
// range.  A gain is claimable when the change wins at least nine tenths of
// the pairs and its median clears the parent's IQR.  It then prints each
// side's failed and attempted operations and runs with a wrong answer.
//
// Exit status: 0 after printing, 2 on usage or parse errors, including a
// run line that lacks a value for a metric BENCHMARK.json declares.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
}

// run is one servebench result line.
type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"` // nil when the line gives none
	} `json:"metrics"`
}

// verdict compares one metric over the pairs.
type verdict struct {
	parent, change stats
	wins, pairs    int
	clearsIQR      bool // the change's median beats the parent's by more than its IQR
}

// stats are the median and quartiles of one side's runs.
type stats struct{ q1, median, q3 float64 }

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout)) }

func mainErr(args []string, w io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs BENCHMARK.json PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	defs, err := loadDefs(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	parent, err := loadRuns(args[1], defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	change, err := loadRuns(args[2], defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(parent) != len(change) || len(parent) == 0 {
		fmt.Fprintf(os.Stderr, "benchpairs: %d parent runs and %d change runs do not pair up\n", len(parent), len(change))
		return 2
	}
	fmt.Fprintf(w, "%d pairs; medians with [q1, q3]\n", len(parent))
	fmt.Fprintf(w, "%-14s %-34s %-34s %-6s %s\n", "metric", "parent", "change", "wins", "median gap > parent IQR")
	for _, d := range defs {
		v := compare(values(parent, d.Name), values(change, d.Name), d.Better == "higher")
		fmt.Fprintf(w, "%-14s %-34s %-34s %-6s %v (gap %+.4g, IQR %.4g) %s\n", d.Name,
			v.parent.String(), v.change.String(), fmt.Sprintf("%d/%d", v.wins, v.pairs),
			v.clearsIQR, v.change.median-v.parent.median, v.parent.q3-v.parent.q1, d.Unit)
	}
	for _, side := range []struct {
		name string
		runs []run
	}{{"parent", parent}, {"change", change}} {
		failed, attempted, wrong := 0, 0, 0
		for _, r := range side.runs {
			failed += r.Failed
			attempted += r.Attempted
			if !r.Correct {
				wrong++
			}
		}
		fmt.Fprintf(w, "%s: %d of %d ops failed, %d of %d runs with a wrong answer\n",
			side.name, failed, attempted, wrong, len(side.runs))
	}
	return 0
}

func (s stats) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}

// compare pairs parent[i] with change[i].
func compare(parent, change []float64, higherBetter bool) verdict {
	v := verdict{parent: summarize(parent), change: summarize(change), pairs: len(parent)}
	for i := range parent {
		if (higherBetter && change[i] > parent[i]) || (!higherBetter && change[i] < parent[i]) {
			v.wins++
		}
	}
	gap := v.parent.median - v.change.median
	if higherBetter {
		gap = -gap
	}
	v.clearsIQR = gap > v.parent.q3-v.parent.q1
	return v
}

// summarize returns the quartiles of xs, interpolating linearly between
// order statistics.
func summarize(xs []float64) stats {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return stats{q1: at(0.25), median: at(0.5), q3: at(0.75)}
}

// values returns one metric of every run; loadRuns has checked that each
// run has it.
func values(runs []run, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = *r.Metrics[name].Value
	}
	return out
}

func loadDefs(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// loadRuns reads one run per line and fails on a line that lacks a value
// for any of defs' metrics: read as 0, it would win every pair of a
// lower-is-better metric.
func loadRuns(path string, defs []metricDef) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for _, d := range defs {
			if r.Metrics[d.Name].Value == nil {
				return nil, fmt.Errorf("%s:%d: no value for metric %q", path, line, d.Name)
			}
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}
