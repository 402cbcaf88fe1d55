package lpmodel

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/workload"
)

// The D=2, n=35, k=4, F=3 uniform family is the smallest family in which the
// paper's classic rounding - start offsets only, planned against k + (D-1)
// locations - systematically fails to produce any feasible schedule: the
// narrow budget forces evictions that defer a block to a later sampled
// interval that never comes.  The seeds below were found by scanning that
// family for classic-enumeration failures; the widened enumeration (the
// timeline's end offset, then the full k + 2(D-1) budget of Theorem 4) must
// turn every one of them into a feasible schedule within the theorem's
// extra-cache bound.
func regressInstance(seed int64) (*Model, *Fractional, error) {
	m, err := Build(regressFamily(seed))
	if err != nil {
		return nil, nil, err
	}
	frac, err := m.Solve(lp.Options{Cascade: true})
	if err != nil {
		return nil, nil, err
	}
	return m, frac, nil
}

// regressFamily is the family's instance for one seed.
func regressFamily(seed int64) *core.Instance {
	return workload.Instance(workload.Uniform(35, 12, seed), 4, 3, 2, workload.AssignStripe, 0)
}

func TestExtractRegressionSeeds(t *testing.T) {
	// Every seed here fails the classic enumeration and passes the widened
	// one, tied or not.
	for _, seed := range []int64{7, 11, 33, 46, 56, 75, 97, 113, 117, 119, 128, 129} {
		for _, tied := range []bool{false, true} {
			m, frac, err := regressInstance(seed)
			if tied {
				m.TieBreakObjective(1e-5)
				frac, err = m.Solve(lp.Options{Cascade: true})
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := Extract(m, frac)
			if err != nil {
				t.Errorf("seed %d (tied %v): %v", seed, tied, err)
				continue
			}
			if budget := 2 * (m.In.Disks - 1); res.ExtraCache > budget {
				t.Errorf("seed %d (tied %v): extra cache %d exceeds the 2(D-1) = %d budget", seed, tied, res.ExtraCache, budget)
			}
		}
	}
}

// TestExtractSeed97EtaVertex runs Extract on the optimal vertex of seed 97's
// untied program that Dantzig pricing over an eta-file basis reached, saved
// in testdata with its nonzero x(I) because that engine is gone.  Every
// offset of that vertex fails to round at both planning budgets (see
// NoFeasibleOffsetError): late in the trace the rounding evicts a disk-0
// block that the remaining batches' disk-0 slots, all taken by blocks
// needed sooner, never fetch back.  The served engine's vertex of the same
// program rounds within budget (TestExtractRegressionSeeds).
func TestExtractSeed97EtaVertex(t *testing.T) {
	data, err := os.ReadFile("testdata/seed97_eta_vertex.json")
	if err != nil {
		t.Fatal(err)
	}
	var saved struct {
		Seed      int64   `json:"seed"`
		Objective float64 `json:"objective"`
		X         []struct {
			Start, End int
			X          float64
		} `json:"x"`
	}
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatal(err)
	}
	m, served, err := regressInstance(saved.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if d := saved.Objective - served.Objective; d > 1e-9 || d < -1e-9 {
		t.Fatalf("saved vertex costs %v, the program's optimum is %v", saved.Objective, served.Objective)
	}
	frac := &Fractional{X: make([]float64, len(m.Intervals)), Objective: saved.Objective}
	at := make(map[Interval]int, len(m.Intervals))
	for idx, iv := range m.Intervals {
		at[iv] = idx
	}
	for _, e := range saved.X {
		idx, ok := at[Interval{Start: e.Start, End: e.End}]
		if !ok {
			t.Fatalf("saved interval (%d,%d) is not in the model", e.Start, e.End)
		}
		frac.X[idx] = e.X
	}
	res, err := Extract(m, frac)
	var nf *NoFeasibleOffsetError
	if !errors.As(err, &nf) {
		t.Fatalf("Extract = %+v, %v; want a *NoFeasibleOffsetError", res, err)
	}
	t.Log(err)
}
