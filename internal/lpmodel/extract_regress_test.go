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
	frac, err := m.Solve(lp.Options{})
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
				frac, err = m.Solve(lp.Options{})
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

// savedVertex is an optimal vertex saved in testdata: the instance it
// belongs to (a regression-family seed or an lp-cold ref), its objective and
// its nonzero x(I).
type savedVertex struct {
	Seed      int64   `json:"seed"`
	Ref       int     `json:"ref"`
	Objective float64 `json:"objective"`
	X         []struct {
		Start, End int
		X          float64
	} `json:"x"`
}

func readVertex(t *testing.T, path string) *savedVertex {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v savedVertex
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return &v
}

// on places the saved x(I) on m's intervals, failing unless the saved
// objective is optimum, the value of m's own optimal vertex.
func (v *savedVertex) on(t *testing.T, m *Model, optimum float64) *Fractional {
	t.Helper()
	if d := v.Objective - optimum; d > 1e-9 || d < -1e-9 {
		t.Fatalf("saved vertex costs %v, the program's optimum is %v", v.Objective, optimum)
	}
	frac := &Fractional{X: make([]float64, len(m.Intervals)), Objective: v.Objective}
	at := make(map[Interval]int, len(m.Intervals))
	for idx, iv := range m.Intervals {
		at[iv] = idx
	}
	for _, e := range v.X {
		idx, ok := at[Interval{Start: e.Start, End: e.End}]
		if !ok {
			t.Fatalf("saved interval (%d,%d) is not in the model", e.Start, e.End)
		}
		frac.X[idx] = e.X
	}
	return frac
}

// TestExtractSeed97EtaVertex runs Extract on the optimal vertex of seed 97's
// untied program that Dantzig pricing over an eta-file basis reached, saved
// in testdata with its nonzero x(I) because that engine is gone.  Every
// offset of that vertex fails to round at both planning budgets, under
// either rounding (see NoFeasibleOffsetError): late in the trace the rounding evicts a disk-0
// block that the remaining batches' disk-0 slots, all taken by blocks
// needed sooner, never fetch back.  The served engine's vertex of the same
// program rounds within budget (TestExtractRegressionSeeds).
func TestExtractSeed97EtaVertex(t *testing.T) {
	saved := readVertex(t, "testdata/seed97_eta_vertex.json")
	m, served, err := regressInstance(saved.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(m, saved.on(t, m, served.Objective))
	var nf *NoFeasibleOffsetError
	if !errors.As(err, &nf) {
		t.Fatalf("Extract = %+v, %v; want a *NoFeasibleOffsetError", res, err)
	}
	t.Log(err)
}

// TestExtractRef50ScratchVertex runs Extract on the integral optimal vertex
// the served engine reaches on lp-cold ref 50 (D=1, n=38, k=4, F=5), saved
// in testdata so that the check does not depend on the engine's pivot path.
// Its LP bound and OPT(k) are both 36.  The vertex's interval (25,31) is a
// pure scratch fetch, and (27,28) lies inside it.  The first rounding fills
// (25,31) with b1, the earliest-needed missing block, though b1 is requested
// at 28, inside the interval: the fetch ends after that request, and every
// candidate of that rounding stalls 37.  The second rounding passes over b1
// there, and (27,28) fetches it in time: Extract must return stall 36 with no
// extra cache.
func TestExtractRef50ScratchVertex(t *testing.T) {
	saved := readVertex(t, "testdata/ref50_scratch_vertex.json")
	in := lpColdBlock(saved.Ref / 42)[saved.Ref%42]
	m, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	served, err := m.SolveWith(nil, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frac := saved.on(t, m, served.Objective)
	idxs, dist, total := support(m, frac)
	starts, ends := candidateOffsets(idxs, dist, total)
	firstBest := -1
	rnd := newRounding(m)
	for _, budget := range []int{in.K + in.Disks - 1, in.K + 2*(in.Disks-1)} {
		for _, off := range append(starts, ends...) {
			sched, _ := rnd.extractSchedule(sample(m, frac, idxs, dist, total, off), budget, false)
			r, _, err := evaluate(in, sched)
			if err == nil && (firstBest < 0 || r.Stall < firstBest) {
				firstBest = r.Stall
			}
		}
	}
	if firstBest != 37 {
		t.Fatalf("the first rounding's best candidate stalls %d; the saved vertex is kept as one that stalls 37", firstBest)
	}
	res, err := Extract(m, frac)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stall != 36 || res.ExtraCache != 0 {
		t.Fatalf("Extract: stall %d, extra cache %d; want 36 and 0 (OPT(k) = LP bound = 36)", res.Stall, res.ExtraCache)
	}
}

// BenchmarkExtractSessionShape runs Extract on the served vertices of eight
// instances of the serving benchmark's session shape after its twelve
// extends (Uniform(72, 8), k=4, F=3, D=2, striped), one instance per op.
func BenchmarkExtractSessionShape(b *testing.B) {
	type solved struct {
		m    *Model
		frac *Fractional
	}
	var set []solved
	for seed := int64(1); seed <= 8; seed++ {
		m, err := Build(workload.Instance(workload.Uniform(72, 8, seed), 4, 3, 2, workload.AssignStripe, 0))
		if err != nil {
			b.Fatal(err)
		}
		frac, err := m.Solve(lp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		set = append(set, solved{m, frac})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := set[i%len(set)]
		if _, err := Extract(s.m, s.frac); err != nil {
			b.Fatal(err)
		}
	}
}
