package lpmodel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/workload"
)

// extendEngines is the engine grid the incremental path is pinned against:
// the revised method's one engine, steepest edge over the LU basis.
var extendEngines = []struct {
	name string
	opts lp.Options
}{
	{"steepest-lu", lp.Options{}},
}

// programSignature canonicalises a model's LP: every variable is renamed to a
// structural name derived from what it means (interval stall, fetch, evict,
// scratch), and every constraint becomes a string over those names, sorted.
// Two models of the same instance get identical signatures exactly when their
// programs are identical up to row order and variable numbering — the
// equivalence Extend promises against Build of the extended trace.
func programSignature(t *testing.T, m *Model) []string {
	t.Helper()
	names := make([]string, m.Problem.NumVars())
	name := func(v int, format string, args ...any) {
		if v == noVar {
			return
		}
		if names[v] != "" {
			t.Fatalf("variable %d named twice: %s and %s", v, names[v], fmt.Sprintf(format, args...))
		}
		names[v] = fmt.Sprintf(format, args...)
	}
	for idx, iv := range m.Intervals {
		name(m.xVar[idx], "x%v", iv)
		for bi, b := range m.Blocks {
			name(m.fVar[idx*len(m.Blocks)+bi], "f%v@%v", b, iv)
			name(m.eVar[idx*len(m.Blocks)+bi], "e%v@%v", b, iv)
		}
		for d := 0; d < m.In.Disks; d++ {
			name(m.sVar[idx*m.In.Disks+d], "s%d@%v", d, iv)
		}
	}
	for v, nm := range names {
		if nm == "" {
			t.Fatalf("variable %d has no structural meaning", v)
		}
		if c := m.Problem.Objective(v); c != 0 {
			names[v] = fmt.Sprintf("%s[c=%g]", nm, c)
		}
	}
	sig := make([]string, 0, m.Problem.NumConstraints())
	var sb strings.Builder
	for i := 0; i < m.Problem.NumConstraints(); i++ {
		c := m.Problem.Constraint(i)
		terms := make([]string, 0, len(c.Coeffs))
		for _, co := range c.Coeffs {
			terms = append(terms, fmt.Sprintf("%g*%s", co.Value, names[co.Var]))
		}
		sort.Strings(terms)
		sb.Reset()
		fmt.Fprintf(&sb, "%s %v %g", strings.Join(terms, " + "), c.Sense, c.RHS)
		sig = append(sig, sb.String())
	}
	sort.Strings(sig)
	return sig
}

func assertSamePrograms(t *testing.T, ext, cold *Model) {
	t.Helper()
	if ext.Problem.NumVars() != cold.Problem.NumVars() {
		t.Fatalf("variables: extended %d, rebuilt %d", ext.Problem.NumVars(), cold.Problem.NumVars())
	}
	if ext.Problem.NumConstraints() != cold.Problem.NumConstraints() {
		t.Fatalf("constraints: extended %d, rebuilt %d", ext.Problem.NumConstraints(), cold.Problem.NumConstraints())
	}
	es, cs := programSignature(t, ext), programSignature(t, cold)
	for i := range es {
		if es[i] != cs[i] {
			t.Fatalf("programs differ at canonical row %d:\n  extended: %s\n  rebuilt:  %s", i, es[i], cs[i])
		}
	}
}

// randomExtendInstance draws a small instance with mixed disks and a partial
// initial cache (so some initial blocks await their first reference).
func randomExtendInstance(rng *rand.Rand) *core.Instance {
	n := 3 + rng.Intn(8)
	blocks := 2 + rng.Intn(5)
	seq := make(core.Sequence, n)
	for i := range seq {
		seq[i] = core.BlockID(rng.Intn(blocks))
	}
	k := 1 + rng.Intn(blocks)
	f := 1 + rng.Intn(3)
	disks := 1 + rng.Intn(3)
	in := workload.Instance(seq, k, f, disks, workload.AssignStripe, 0)
	var init []core.BlockID
	for b := 0; b < blocks && len(init) < k; b++ {
		if rng.Intn(2) == 0 {
			init = append(init, core.BlockID(b))
		}
	}
	return in.WithInitialCache(init...)
}

// TestExtendBuildsIdenticalProgram is the structural half of the incremental
// contract: after any sequence of in-place extensions the model's LP must be
// the same program (same variables, same constraint multiset) as a from-
// scratch Build of the extended trace.
func TestExtendBuildsIdenticalProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(1711))
	for trial := 0; trial < 200; trial++ {
		in := randomExtendInstance(rng)
		known := in.Blocks()
		ext, err := Build(in.Clone())
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		suffix := make([]core.BlockID, 1+rng.Intn(4))
		for i := range suffix {
			suffix[i] = known[rng.Intn(len(known))]
		}
		if err := ext.Extend(suffix...); err != nil {
			t.Fatalf("trial %d: extend %v: %v", trial, suffix, err)
		}
		full := in.Clone()
		full.Seq = append(full.Seq, suffix...)
		cold, err := Build(full)
		if err != nil {
			t.Fatalf("trial %d: rebuild: %v", trial, err)
		}
		assertSamePrograms(t, ext, cold)
	}
}

// TestExtendResolveMatchesCold pins the numerical half across the engine
// grid: an incremental dual re-solve of the extended model reaches the same
// status and optimal value as a cold solve of the rebuilt program, one
// request at a time over a random suffix.
func TestExtendResolveMatchesCold(t *testing.T) {
	for gi, eng := range extendEngines {
		rng := rand.New(rand.NewSource(int64(2025 + gi)))
		solver := lp.NewSolver()
		for trial := 0; trial < 60; trial++ {
			in := randomExtendInstance(rng)
			known := in.Blocks()
			ext, err := Build(in.Clone())
			if err != nil {
				t.Fatalf("%s trial %d: build: %v", eng.name, trial, err)
			}
			if _, err := ext.SolveWith(solver, eng.opts); err != nil {
				t.Fatalf("%s trial %d: base solve: %v", eng.name, trial, err)
			}
			full := in.Clone()
			for step := 0; step < 1+rng.Intn(3); step++ {
				req := known[rng.Intn(len(known))]
				if err := ext.Extend(req); err != nil {
					t.Fatalf("%s trial %d: extend: %v", eng.name, trial, err)
				}
				warm, err := ext.SolveIncremental(solver, eng.opts)
				if err != nil {
					t.Fatalf("%s trial %d step %d: incremental solve: %v", eng.name, trial, step, err)
				}
				full.Seq = append(full.Seq, req)
				cold, err := Build(full)
				if err != nil {
					t.Fatalf("%s trial %d: rebuild: %v", eng.name, trial, err)
				}
				coldFrac, err := cold.Solve(eng.opts)
				if err != nil {
					t.Fatalf("%s trial %d step %d: cold solve: %v", eng.name, trial, step, err)
				}
				if math.Abs(warm.Objective-coldFrac.Objective) > 1e-6*(1+math.Abs(coldFrac.Objective)) {
					t.Fatalf("%s trial %d step %d: incremental objective %g, cold %g",
						eng.name, trial, step, warm.Objective, coldFrac.Objective)
				}
			}
		}
	}
}

// TestExtendResolveE7Shaped runs the E7-sized workload the experiment suite
// uses: a single-request extension must re-solve warm in fewer pivots than
// the cold solve of the rebuilt program while matching its optimum, for
// every engine.
func TestExtendResolveE7Shaped(t *testing.T) {
	seq := workload.Uniform(40, 8, 900)
	base := workload.Instance(seq, 4, 3, 2, workload.AssignStripe, 0)
	for _, eng := range extendEngines {
		solver := lp.NewSolver()
		m, err := Build(base.Clone())
		if err != nil {
			t.Fatalf("%s: build: %v", eng.name, err)
		}
		if _, err := m.SolveWith(solver, eng.opts); err != nil {
			t.Fatalf("%s: base solve: %v", eng.name, err)
		}
		req := base.Seq[len(base.Seq)-3]
		if err := m.Extend(req); err != nil {
			t.Fatalf("%s: extend: %v", eng.name, err)
		}
		warm, err := m.SolveIncremental(solver, eng.opts)
		if err != nil {
			t.Fatalf("%s: incremental solve: %v", eng.name, err)
		}
		full := base.Clone()
		full.Seq = append(full.Seq, req)
		cold, err := Build(full)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", eng.name, err)
		}
		coldFrac, err := cold.Solve(eng.opts)
		if err != nil {
			t.Fatalf("%s: cold solve: %v", eng.name, err)
		}
		if math.Abs(warm.Objective-coldFrac.Objective) > 1e-6*(1+math.Abs(coldFrac.Objective)) {
			t.Fatalf("%s: incremental objective %g, cold %g", eng.name, warm.Objective, coldFrac.Objective)
		}
		if warm.Iterations >= coldFrac.Iterations {
			t.Errorf("%s: incremental re-solve took %d pivots, cold %d — warm start is not paying",
				eng.name, warm.Iterations, coldFrac.Iterations)
		}
	}
}

// TestExtendVerifiedCascade runs the incremental path under the self-healing
// cascade: the re-solve must certify (no downgrades) and match the cold
// optimum.
func TestExtendVerifiedCascade(t *testing.T) {
	seq := workload.Uniform(24, 6, 901)
	in := workload.Instance(seq, 3, 2, 2, workload.AssignStripe, 0)
	solver := lp.NewSolver()
	opts := lp.Options{}
	m, err := Build(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SolveWith(solver, opts); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		req := in.Seq[step*3]
		if err := m.Extend(req); err != nil {
			t.Fatalf("step %d: extend: %v", step, err)
		}
		warm, err := m.SolveIncremental(solver, opts)
		if err != nil {
			t.Fatalf("step %d: incremental solve: %v", step, err)
		}
		if warm.Downgrades != 0 {
			t.Fatalf("step %d: verified incremental solve needed %d downgrades", step, warm.Downgrades)
		}
	}
}

// TestExtendRejectsUnknownBlocks covers the rebuild sentinel: requests for
// blocks the program has never seen (or its synthetic dummy, or the ID a
// second dummy would take) must fail with ErrExtendRebuild before mutating
// anything.
func TestExtendRejectsUnknownBlocks(t *testing.T) {
	in := introParallelInstance()
	m, err := Build(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	vars, cons, n := m.Problem.NumVars(), m.Problem.NumConstraints(), m.In.N()
	bad := []core.BlockID{core.NoBlock, 99, m.Dummy, m.Dummy + 1}
	for _, b := range bad {
		if err := m.Extend(b); !errors.Is(err, ErrExtendRebuild) {
			t.Errorf("Extend(%v) = %v, want ErrExtendRebuild", b, err)
		}
	}
	// A mixed batch with one bad request must be rejected atomically.
	if err := m.Extend(in.Seq[0], 99); !errors.Is(err, ErrExtendRebuild) {
		t.Errorf("mixed Extend = %v, want ErrExtendRebuild", err)
	}
	if m.Problem.NumVars() != vars || m.Problem.NumConstraints() != cons || m.In.N() != n {
		t.Errorf("rejected extension mutated the model")
	}
}

// TestExtendFirstReferenceOfInitialBlock pins the gap-balance path for an
// initially cached block that is referenced for the first time by the
// extension (its never-referenced eviction row must close into a proper
// fetch/evict balance).
func TestExtendFirstReferenceOfInitialBlock(t *testing.T) {
	seq := core.Sequence{0, 1, 0, 2}
	in := core.SingleDisk(seq, 3, 2).WithInitialCache(0, 3) // block 3 cached, never referenced
	ext, err := Build(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := ext.Extend(3, 1, 3); err != nil {
		t.Fatalf("extend: %v", err)
	}
	full := in.Clone()
	full.Seq = append(full.Seq, 3, 1, 3)
	cold, err := Build(full)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePrograms(t, ext, cold)
}

// BenchmarkModelExtendResolve measures the steady-state incremental cycle on
// the E7-sized workload: one appended request, one warm dual re-solve.  The
// cold counterpart (rebuild + solve from scratch) is BenchmarkModelColdResolve;
// the ratio is the speedup the trace-replay benchmark (pcbench -replay)
// records.
func BenchmarkModelExtendResolve(b *testing.B) {
	seq := workload.Uniform(40, 8, 900)
	base := workload.Instance(seq, 4, 3, 2, workload.AssignStripe, 0)
	solver := lp.NewSolver()
	m, err := Build(base.Clone())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.SolveWith(solver, lp.Options{}); err != nil {
		b.Fatal(err)
	}
	reqs := base.Seq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%16 == 0 {
			// Rebase so the program size stays representative of serving.
			b.StopTimer()
			if err := BuildInto(m, base.Clone()); err != nil {
				b.Fatal(err)
			}
			if _, err := m.SolveWith(solver, lp.Options{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := m.Extend(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
		if _, err := m.SolveIncremental(solver, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelColdResolve is the cold baseline of the incremental cycle:
// the same appended request served by a full rebuild and a from-scratch
// solve.
func BenchmarkModelColdResolve(b *testing.B) {
	seq := workload.Uniform(40, 8, 900)
	base := workload.Instance(seq, 4, 3, 2, workload.AssignStripe, 0)
	solver := lp.NewSolver()
	in := base.Clone()
	m := &Model{}
	reqs := base.Seq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%16 == 0 {
			b.StopTimer()
			in = base.Clone()
			b.StartTimer()
		}
		in.Seq = append(in.Seq, reqs[i%len(reqs)])
		if err := BuildInto(m, in); err != nil {
			b.Fatal(err)
		}
		if _, err := m.SolveWith(solver, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
