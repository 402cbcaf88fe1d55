package lp

import "fmt"

// PivotBudgetError is the typed form of an exhausted pivot budget: the
// cascade treats a budget exhaustion as a failed rung, and reports it through
// this error once no rung can complete — a cycling or injected-budget solve
// becomes a typed, mappable failure rather than a silent partial answer.
type PivotBudgetError struct {
	// Iterations is the number of pivots spent before the budget ran out.
	Iterations int
}

func (e *PivotBudgetError) Error() string {
	return fmt.Sprintf("lp: pivot budget exhausted after %d iterations", e.Iterations)
}

// CascadeExhaustedError reports that every rung of the self-healing cascade
// failed: each produced a singular basis, exhausted its pivot budget, or
// returned a solution that failed verification.  Last is the final rung's
// failure (Unwrap exposes it for errors.As/Is).
type CascadeExhaustedError struct {
	// Attempts is the number of rungs tried.
	Attempts int
	// Last is the final rung's failure.
	Last error
}

func (e *CascadeExhaustedError) Error() string {
	return fmt.Sprintf("lp: solve cascade exhausted after %d attempts: %v", e.Attempts, e.Last)
}

func (e *CascadeExhaustedError) Unwrap() error { return e.Last }

// cascadeSolve is the self-healing ladder every revised solve runs.  Every
// Optimal result is verified against the independent certificate (Verify); a
// verification failure, singular refactorization, exhausted pivot budget or
// suspect terminal status abandons the rung and re-solves one step down the
// ladder:
//
//	rung 0  the revised method, warm-started when a basis was offered
//	rung 1  the revised method, cold (a clean re-solve: transient numerical
//	        damage — cosmic or injected — does not repeat, and the result
//	        is bit-identical to what the engine computes fresh)
//	rung 2  the flat dense-tableau path (the independent reference, no
//	        shared machinery with the revised solver at all)
//
// A rung's Optimal solution is returned only after it verifies; a terminal
// Infeasible/Unbounded status is trusted only from the last (reference)
// rung, since a corrupted basis can misreport either.  Solution.Downgrades
// records how many rungs were abandoned; the VerifyFailures and
// CascadeFallbacks counters of the caller's sink (Options.Stats) aggregate
// across solves.
func (s *Solver) cascadeSolve(p *Problem, opts Options, warm *WarmBasis, plan FaultPlan) (*Solution, error) {
	const rungs = 3
	var lastErr error
	for i := 0; i < rungs; i++ {
		if i > 0 {
			opts.Stats.Add(Counters{CascadeFallbacks: 1})
		}
		fault := plan.at(i)
		var sol *Solution
		if i == rungs-1 {
			sol = s.flat.solve(p, fault)
		} else {
			var err error
			s.rev.fault = fault
			sol, err = s.rev.solve(p, opts, warm)
			s.rev.fault = nil
			warm = nil // the later rungs start cold
			if err != nil {
				lastErr = err
				continue
			}
		}
		switch sol.Status {
		case StatusOptimal:
			if verr := Verify(p, sol); verr != nil {
				opts.Stats.Add(Counters{VerifyFailures: 1})
				lastErr = verr
				continue
			}
			opts.Stats.Add(Counters{VerifiedSolves: 1})
			sol.Downgrades = i
			recordSolve(opts.Stats, sol)
			return sol, nil
		case StatusIterLimit:
			lastErr = &PivotBudgetError{Iterations: sol.Iterations}
			continue
		default:
			// Infeasible/Unbounded: a corrupted basis can misreport either,
			// so the status is only trusted from the final reference rung.
			if i == rungs-1 {
				sol.Downgrades = i
				recordSolve(opts.Stats, sol)
				return sol, nil
			}
			lastErr = fmt.Errorf("lp: rung %d ended %v before the reference engine confirmed it", i, sol.Status)
		}
	}
	return nil, &CascadeExhaustedError{Attempts: rungs, Last: lastErr}
}
