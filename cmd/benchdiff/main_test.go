package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pfcache/internal/service"
)

// table builds a one-experiment sweep: E7-like, with two schedule-value
// columns ("D", "stall") and one effort column ("astar expanded").
func table(headers []string, rows ...[]string) *service.SweepResponse {
	return &service.SweepResponse{Results: []service.TableWire{{ID: "E7", Headers: headers, Rows: rows}}}
}

var baseHeaders = []string{"D", "stall", "astar expanded"}

func baseline() *service.SweepResponse {
	return table(baseHeaders, []string{"1", "0.9", "10"}, []string{"2", "0.8", "20"})
}

func change(oldStall, newStall string) rowChange {
	return rowChange{Experiment: "E7",
		Old:    map[string]string{"D": "2", "stall": oldStall},
		New:    map[string]string{"D": "2", "stall": newStall},
		Reason: "test"}
}

func TestUnchangedRowsPassWithoutRecord(t *testing.T) {
	// Effort columns may move; schedule values may not.
	cur := table(baseHeaders, []string{"1", "0.9", "11"}, []string{"2", "0.8", "25"})
	if f := compare(baseline(), cur, &record{}); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
}

func TestChangedRowNeedsRecord(t *testing.T) {
	cur := table(baseHeaders, []string{"1", "0.9", "10"}, []string{"2", "0.7", "20"})
	if f := compare(baseline(), cur, &record{}); len(f) != 1 {
		t.Fatalf("failures %v, want exactly the changed row", f)
	}
}

func TestRecordedChangeAccepted(t *testing.T) {
	cur := table(baseHeaders, []string{"1", "0.9", "10"}, []string{"2", "0.7", "20"})
	rec := &record{Rows: []rowChange{change("0.8", "0.7")}}
	if f := compare(baseline(), cur, rec); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
	if u := rec.unused(); len(u) != 0 {
		t.Fatalf("entry reported unused after it excused a row: %v", u)
	}
}

func TestRecordedChangeMustShowNewValues(t *testing.T) {
	// The entry's old values match the baseline row, but the current table
	// carries other new values (and, in the second case, the old ones).
	for _, stall := range []string{"0.6", "0.8"} {
		cur := table(baseHeaders, []string{"1", "0.9", "10"}, []string{"2", stall, "20"})
		rec := &record{Rows: []rowChange{change("0.8", "0.7")}}
		if f := compare(baseline(), cur, rec); len(f) != 1 {
			t.Fatalf("current stall %s: failures %v, want one", stall, f)
		}
		if u := rec.unused(); len(u) != 1 {
			t.Fatalf("current stall %s: unused entries %v, want the entry", stall, u)
		}
	}
}

func TestRecordedChangeMustStayInPlace(t *testing.T) {
	// The new values exist, but before the row that precedes them in the
	// baseline: a reordering, not the recorded change.
	cur := table(baseHeaders, []string{"2", "0.7", "20"}, []string{"1", "0.9", "10"})
	rec := &record{Rows: []rowChange{change("0.8", "0.7")}}
	if f := compare(baseline(), cur, rec); len(f) != 1 {
		t.Fatalf("failures %v, want the reordered row", f)
	}
}

func TestOldValuesMustMatchExactly(t *testing.T) {
	// An entry for another row's old values excuses nothing here.
	cur := table(baseHeaders, []string{"1", "0.9", "10"}, []string{"2", "0.7", "20"})
	rec := &record{Rows: []rowChange{change("0.85", "0.7")}}
	if f := compare(baseline(), cur, rec); len(f) != 1 {
		t.Fatalf("failures %v, want the changed row", f)
	}
}

func TestDroppedColumnNeedsRecord(t *testing.T) {
	cur := table([]string{"D", "stall"}, []string{"1", "0.9"}, []string{"2", "0.8"})
	if f := compare(baseline(), cur, &record{}); len(f) != 1 || !strings.Contains(f[0], "disappeared") {
		t.Fatalf("failures %v, want the missing column", f)
	}
	rec := &record{DroppedColumns: []droppedColumn{{Experiment: "E7", Column: "astar expanded", Reason: "test"}}}
	if f := compare(baseline(), cur, rec); len(f) != 0 {
		t.Fatalf("unexpected failures with the column recorded: %v", f)
	}
	if u := rec.unused(); len(u) != 0 {
		t.Fatalf("entry reported unused after it excused a column: %v", u)
	}
	// A dropped schedule-value column is excused the same way, and the
	// rows are then compared on the columns that remain.
	cur = table([]string{"D", "astar expanded"}, []string{"1", "10"}, []string{"2", "20"})
	rec = &record{DroppedColumns: []droppedColumn{{Experiment: "E7", Column: "stall", Reason: "test"}}}
	if f := compare(baseline(), cur, rec); len(f) != 0 {
		t.Fatalf("unexpected failures with a schedule column recorded: %v", f)
	}
}

func TestUnusedEntriesFail(t *testing.T) {
	// Neither entry matches anything the baseline holds.
	rec := &record{
		Rows:           []rowChange{change("0.5", "0.4")},
		DroppedColumns: []droppedColumn{{Experiment: "E7", Column: "gone", Reason: "test"}},
	}
	if f := compare(baseline(), baseline(), rec); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
	if u := rec.unused(); len(u) != 2 {
		t.Fatalf("unused entries %v, want both", u)
	}
}

// TestRunUsesEntriesAcrossBaselines drives the command: an entry only one
// baseline needs is used, so the run passes, and a stale entry fails it.
func TestRunUsesEntriesAcrossBaselines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", table(baseHeaders, []string{"1", "0.9", "10"}))
	base := write("base.json", baseline())
	cur := write("cur.json", table(baseHeaders, []string{"1", "0.9", "10"}, []string{"2", "0.7", "20"}))
	good := write("good.json", record{Rows: []rowChange{change("0.8", "0.7")}})
	stale := write("stale.json", record{Rows: []rowChange{change("0.8", "0.7"), change("0.5", "0.4")}})
	empty := write("empty.json", record{})
	if code := run([]string{good, old, base, cur}); code != 0 {
		t.Fatalf("exit %d with a used record, want 0", code)
	}
	if code := run([]string{stale, old, base, cur}); code != 1 {
		t.Fatalf("exit %d with a stale entry, want 1", code)
	}
	if code := run([]string{empty, old, base, cur}); code != 1 {
		t.Fatalf("exit %d with an empty record, want 1", code)
	}
	if code := run([]string{empty, base, base}); code != 0 {
		t.Fatalf("exit %d comparing a baseline with itself, want 0", code)
	}
}
