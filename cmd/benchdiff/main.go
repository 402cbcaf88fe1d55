// Command benchdiff compares pcbench -json trajectory files and fails on
// unexplained changes to the experiment tables.
//
// Usage:
//
//	benchdiff RECORD.json BASELINE.json... CURRENT.json
//
// The comparison encodes the repository's bench-regression policy:
//
//   - Every experiment of a baseline must still exist.
//   - Every baseline column must still exist (new columns may be added),
//     unless the rebaseline record lists it as dropped.
//   - Every baseline row must appear in the current table, in order, with
//     identical values in every *schedule-value* column.  Engine-effort
//     columns (state expansions, pivot/iteration counts, refactorization and
//     warm-start counters, wall times) may change: they track how hard the
//     solvers worked, not what the algorithms computed, and they
//     legitimately move when engines improve.
//   - A baseline row whose schedule values equal a record entry's old values
//     must appear, in its place, with the entry's new values instead.
//   - Every record entry must be used by at least one baseline: a stale
//     entry would excuse a change nobody made.
//   - The top-level lp/opt counter blocks and the timings block (wall-clock
//     ns/op figures recorded by scripts/bench.sh) are informational and
//     never compared — timings exist to make the perf trajectory readable,
//     not to gate it.
//
// The rebaseline record (see record; the repository's is REBASELINE.json)
// names each deliberate change to a committed schedule value once, with its
// reason, so the baselines themselves never have to be rewritten.  A record
// of {} accepts no change.
//
// Exit status: 0 when every baseline is preserved, 1 on a regression, 2 on
// usage or parse errors.
package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"regexp"
	"strings"

	"pfcache/internal/service"
)

// mutableColumn matches headers whose values measure engine effort rather
// than schedule values.  "astar expanded" / "dijkstra expanded" (E7) are the
// current instances; pivot/iteration, refactorization, LU-fill, warm-start
// and wall-time names are reserved so future tables can surface simplex
// effort counters without freezing them into the baseline.
var mutableColumn = regexp.MustCompile(`(?i)expanded|generated|pruned|pivots|iterations|states|seconds|refactor|warm.?start|lu.?fill|eta.?col|symbolic|batch`)

// record is a rebaseline record: the committed schedule-value changes the
// comparison accepts.
type record struct {
	// Rows are changed rows: a baseline row of Experiment whose
	// schedule-value cells equal Old must appear with New instead.  Both
	// map a column header to its cell.
	Rows []rowChange `json:"rows"`
	// DroppedColumns are baseline columns the current tables no longer
	// carry.
	DroppedColumns []droppedColumn `json:"dropped_columns"`
}

type rowChange struct {
	Experiment string            `json:"experiment"`
	Old        map[string]string `json:"old"`
	New        map[string]string `json:"new"`
	Reason     string            `json:"reason"`

	used bool
}

type droppedColumn struct {
	Experiment string `json:"experiment"`
	Column     string `json:"column"`
	Reason     string `json:"reason"`

	used bool
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff RECORD.json BASELINE.json... CURRENT.json")
		return 2
	}
	rec := &record{}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := json.Unmarshal(data, rec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", args[0], err)
		return 2
	}
	paths := args[1:]
	current := paths[len(paths)-1]
	cur, err := load(current)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	status := 0
	for _, path := range paths[:len(paths)-1] {
		base, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		failures := compare(base, cur, rec)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) against %s\n", len(failures), path)
			status = 1
			continue
		}
		fmt.Printf("benchdiff OK: every baseline row of %s is preserved in %s\n", path, current)
	}
	if unused := rec.unused(); len(unused) > 0 {
		for _, u := range unused {
			fmt.Fprintln(os.Stderr, "UNUSED RECORD ENTRY:", u)
		}
		status = 1
	}
	return status
}

func load(path string) (*service.SweepResponse, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out service.SweepResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &out, nil
}

// unused describes every record entry no comparison has used.
func (r *record) unused() []string {
	var out []string
	for _, c := range r.Rows {
		if !c.used {
			out = append(out, fmt.Sprintf("%s row %v (%s)", c.Experiment, c.Old, c.Reason))
		}
	}
	for _, c := range r.DroppedColumns {
		if !c.used {
			out = append(out, fmt.Sprintf("%s dropped column %q (%s)", c.Experiment, c.Column, c.Reason))
		}
	}
	return out
}

// dropped returns the record's entry for a dropped column, or nil.
func (r *record) dropped(exp, column string) *droppedColumn {
	for i := range r.DroppedColumns {
		if c := &r.DroppedColumns[i]; c.Experiment == exp && c.Column == column {
			return c
		}
	}
	return nil
}

// changed returns the record's entry whose old cells are exactly cells, or
// nil.
func (r *record) changed(exp string, cells map[string]string) *rowChange {
	for i := range r.Rows {
		if c := &r.Rows[i]; c.Experiment == exp && maps.Equal(c.Old, cells) {
			return c
		}
	}
	return nil
}

// compare returns one message per violated policy rule, marking the record
// entries it uses.
func compare(base, cur *service.SweepResponse, rec *record) []string {
	var failures []string
	curByID := make(map[string]*service.TableWire, len(cur.Results))
	for i := range cur.Results {
		curByID[cur.Results[i].ID] = &cur.Results[i]
	}
	for i := range base.Results {
		bt := &base.Results[i]
		ct, ok := curByID[bt.ID]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: experiment missing from current run", bt.ID))
			continue
		}
		failures = append(failures, compareTable(bt, ct, rec)...)
	}
	return failures
}

func compareTable(base, cur *service.TableWire, rec *record) []string {
	var failures []string

	// Map each immutable baseline column to its position in the current
	// headers; renamed or dropped columns are regressions unless recorded.
	type column struct {
		name    string
		baseIdx int
		curIdx  int
	}
	curIdx := make(map[string]int, len(cur.Headers))
	for i, h := range cur.Headers {
		curIdx[h] = i
	}
	var cols []column
	for i, h := range base.Headers {
		j, ok := curIdx[h]
		if !ok {
			if d := rec.dropped(base.ID, h); d != nil {
				d.used = true
				continue
			}
			failures = append(failures, fmt.Sprintf("%s: column %q disappeared", base.ID, h))
			continue
		}
		if !mutableColumn.MatchString(h) {
			cols = append(cols, column{name: h, baseIdx: i, curIdx: j})
		}
	}
	if len(failures) > 0 {
		return failures
	}

	// cells projects a row onto the immutable baseline columns, by header.
	cells := func(row []string, useCur bool) map[string]string {
		out := make(map[string]string, len(cols))
		for _, c := range cols {
			idx := c.baseIdx
			if useCur {
				idx = c.curIdx
			}
			if idx >= len(row) {
				out[c.name] = "\x00<short row>"
				continue
			}
			out[c.name] = row[idx]
		}
		return out
	}

	// Every baseline row must appear in the current rows as an in-order
	// subsequence: rows may be added between historical ones, but no
	// historical row may change a schedule value, vanish, or be reordered.
	// A recorded change replaces the row's expected values.
	next := 0
	for ri, brow := range base.Rows {
		want := cells(brow, false)
		change := rec.changed(base.ID, want)
		if change != nil {
			want = change.New
		}
		found := -1
		for j := next; j < len(cur.Rows); j++ {
			if maps.Equal(cells(cur.Rows[j], true), want) {
				found = j
				break
			}
		}
		if found < 0 {
			if change != nil {
				failures = append(failures, fmt.Sprintf(
					"%s row %d (%s): the record's new values %v are not in its place (%s)",
					base.ID, ri, strings.Join(brow, " | "), change.New, change.Reason))
				continue
			}
			failures = append(failures, fmt.Sprintf(
				"%s row %d (%s): no matching row in current output (schedule values changed, row removed, or rows reordered)",
				base.ID, ri, strings.Join(brow, " | ")))
			continue
		}
		if change != nil {
			change.used = true
		}
		next = found + 1
	}
	return failures
}
