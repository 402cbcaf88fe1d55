package lp

import (
	"fmt"
	"math"
	"math/bits"
)

// Pricing names the revised simplex's entering-column rule.  There is one,
// PricingSteepestEdge; the type and Options.Pricing are kept, ignored,
// because the serving benchmark still sets them.
type Pricing int

// PricingSteepestEdge is projected steepest edge with incrementally updated
// reference weights: the entering column maximises rc_j^2 / gamma_j, where
// gamma_j approximates 1 + |B^-1 A_j|^2.  The weights are maintained
// Devex-style (updated from the pivot row for the candidate list, exact for
// the entering column) and the whole reference framework is reset to unit
// weights when the entering column's stored weight has drifted too far from
// its exact value.
const PricingSteepestEdge Pricing = 0

// String names the pricing rule.
func (p Pricing) String() string {
	if p == PricingSteepestEdge {
		return "steepest-edge"
	}
	return fmt.Sprintf("pricing(%d)", int(p))
}

// seCandListSize bounds the steepest-edge candidate list.  Refilling it is a
// pure scan of the maintained reduced-cost vector (no matrix work).
const seCandListSize = 16

// seDriftRatio bounds how far an entering column's stored reference weight
// may deviate from its exact value (measured when the column's FTRAN is
// computed anyway) before the whole reference framework is reset to unit
// weights — the Devex-style fallback that keeps approximate weights from
// steering pricing with stale information.
const seDriftRatio = 128

// resetReference restores the steepest-edge reference framework: every
// column's weight returns to 1 (the weight of a column in the reference
// frame), forgetting any accumulated approximation.
func (r *revisedSolver) resetReference() {
	r.seResets++
	g := r.gamma[:r.cols]
	for i := range g {
		g[i] = 1
	}
}

// priceSteepest returns the entering column under steepest-edge pricing over
// the shared candidate list.  The engine keeps the whole rc vector current
// from the pivot row (see seUpdate), so scoring a candidate is two loads and
// a divide — no duals, no column dots — and when the list runs dry refilling
// it (refillSE) is a pure scan of the maintained vector.
func (r *revisedSolver) priceSteepest() int {
	best, bestScore := -1, 0.0
	w := 0
	for _, j := range r.cand {
		if r.inBasis[j] || r.rc[j] >= -r.tol {
			continue
		}
		r.cand[w] = j
		w++
		if score := r.rc[j] * r.rc[j] / r.gamma[j]; score > bestScore {
			bestScore, best = score, j
		}
	}
	r.cand = r.cand[:w]
	if best >= 0 {
		return best
	}
	return r.refillSE()
}

// refillSE rebuilds the candidate list with the (up to seCandListSize)
// best steepest-edge scores over the maintained reduced costs and returns
// the best column, or -1 when every reduced cost is within tolerance.  The
// scan visits only the columns of r.attractive below priceLimit, in
// ascending order: those with rc < -tol.  The engine keeps every basic
// column's rc at exactly 0 (fullPrice pins it, seUpdate zeroes the entering
// column's and skips basic columns), so no basic column is among them.
func (r *revisedSolver) refillSE() int {
	if r.probe != nil {
		r.probe(probeRefill, -1)
	}
	cand := r.cand[:0]
	best, bestScore := -1, 0.0
	worst := 0.0 // smallest score currently in a full list
	limit := r.priceLimit()
scan:
	for w, word := range r.attractive {
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			if j >= limit {
				break scan
			}
			s := r.rc[j] * r.rc[j] / r.gamma[j]
			if s > bestScore {
				bestScore, best = s, j
			}
			if len(cand) < seCandListSize {
				cand = append(cand, j)
				if len(cand) == seCandListSize {
					worst = scoreMin(r, cand)
				}
				continue
			}
			if s <= worst {
				continue
			}
			// Replace the current worst candidate.
			wi := 0
			wv := math.Inf(1)
			for k, cj := range cand {
				if v := r.rc[cj] * r.rc[cj] / r.gamma[cj]; v < wv {
					wv, wi = v, k
				}
			}
			cand[wi] = j
			worst = scoreMin(r, cand)
		}
	}
	r.cand = cand
	return best
}

// scoreMin returns the smallest steepest-edge score in the candidate list.
func scoreMin(r *revisedSolver, cand []int) float64 {
	min := math.Inf(1)
	for _, j := range cand {
		if v := r.rc[j] * r.rc[j] / r.gamma[j]; v < min {
			min = v
		}
	}
	return min
}

// refreshRC recomputes the duals and the full reduced-cost vector from
// scratch, resetting any error the incremental updates accumulated.
func (r *revisedSolver) refreshRC() {
	r.computeDuals()
	r.fullPrice()
}

// enterWeight returns the exact projected steepest-edge weight of the
// entering column, 1 + |B^-1 A_enter|^2 (the squared norm was accumulated by
// the ratio test's sweep over the FTRAN'd column), and resets the reference
// framework when the stored weight has drifted beyond seDriftRatio — the
// "weights drift" fallback.
func (r *revisedSolver) enterWeight(enter int) float64 {
	exact := 1 + r.alphaNorm
	if stored := r.gamma[enter]; exact > seDriftRatio*stored || stored > seDriftRatio*exact {
		r.resetReference()
	}
	r.gamma[enter] = exact
	return exact
}

// priceBlandSE is Bland's rule over the maintained reduced costs: the
// smallest-index eligible column with negative reduced cost, or -1 when none
// remains.  It costs no duals BTRAN and no pricing sweep — the engine keeps
// rc current through seUpdate even for Bland-selected pivots.
func (r *revisedSolver) priceBlandSE() int {
	limit := r.priceLimit()
	for j := 0; j < limit; j++ {
		if !r.inBasis[j] && r.rc[j] < -r.tol {
			return j
		}
	}
	return -1
}

// seUpdate propagates one pivot through the steepest-edge engine's state
// before the basis changes: one BTRAN of the leaving row's unit vector
// (btranRow) yields rho = B^-T e_r, whose support spans the pivot row
// alpha_rj = rho · A_j.  The pivot row is assembled sparsely — only the
// A-rows in rho's support are read, through the CSC matrix's CSR view, into
// an epoch-stamped accumulator — and only the columns it actually touches
// get the reduced-cost recurrence (rc_j -= (rc_q/alpha_rq) * alpha_rj) and
// the Devex weight update (w_j = max(w_j, (alpha_rj/alpha_rq)^2 * w_q)).
// The support rows are those of r.rhoRows, walked in ascending order, and
// every reduced cost written also sets its column's bit of r.attractive.
// This one sparse pass replaces a per-pivot duals BTRAN and candidate
// repricing, and costs O(pivot-row fill), not O(matrix nonzeros).  gq is
// the entering column's exact weight from enterWeight.
func (r *revisedSolver) seUpdate(enter, leave int, gq float64) {
	alphaR := r.alpha[leave]
	leaving := r.basis[leave]
	if w := gq / (alphaR * alphaR); w > 1 {
		r.gamma[leaving] = w
	} else {
		r.gamma[leaving] = 1
	}
	r.btranRow(leave)
	mult := r.rc[enter] / alphaR
	inv := 1 / alphaR
	phase1 := r.phase == 1
	cm := r.m
	r.accEpoch++
	epoch := r.accEpoch
	touched := r.touched[:0]
	for w, word := range r.rhoRows {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			v := r.rho[i]
			if v == 0 {
				continue
			}
			// Structural columns accumulate across support rows.
			for s := cm.rowPtr[i]; s < cm.rowPtr[i+1]; s++ {
				j := cm.colIdxR[s]
				if r.accMark[j] == epoch {
					r.accVal[j] += v * cm.valR[s]
					continue
				}
				r.accMark[j] = epoch
				r.accVal[j] = v * cm.valR[s]
				touched = append(touched, j)
			}
			// Slack and artificial columns are row singletons: their
			// pivot-row entry comes from this support row alone.
			if sj := r.rowSlack[i]; sj >= 0 {
				if j := r.numVars + int(sj); !r.inBasis[j] {
					ab := r.slackSign[sj] * v
					r.setRC(j, r.rc[j]-mult*ab)
					ab *= inv
					if w := ab * ab * gq; w > r.gamma[j] {
						r.gamma[j] = w
					}
				}
			}
			if aj := r.rowArt[i]; phase1 && aj >= 0 {
				if j := r.artLo + int(aj); !r.inBasis[j] {
					ab := v
					r.setRC(j, r.rc[j]-mult*ab)
					ab *= inv
					if w := ab * ab * gq; w > r.gamma[j] {
						r.gamma[j] = w
					}
				}
			}
		}
	}
	r.touched = touched
	inBasis, acc, rc, gamma, att := r.inBasis, r.accVal, r.rc, r.gamma, r.attractive
	negTol := -r.tol
	for _, j := range touched {
		if inBasis[j] {
			continue
		}
		ab := acc[j]
		v := rc[j] - mult*ab
		rc[j] = v
		setBit(att, int(j), v < negTol)
		ab *= inv
		if w := ab * ab * gq; w > gamma[j] {
			gamma[j] = w
		}
	}
	// The entering column turns basic (its rc is pinned to zero by the basic
	// skip above on later sweeps); the leaving column turns nonbasic with the
	// textbook post-pivot reduced cost -rc_q/alpha_rq.
	r.setRC(enter, 0)
	r.setRC(leaving, -mult)
}

// setRC stores column j's reduced cost and sets its bit of r.attractive to
// rc < -tol.
func (r *revisedSolver) setRC(j int, rc float64) {
	r.rc[j] = rc
	setBit(r.attractive, j, rc < -r.tol)
}

// setBit sets bit j of bits to on, without a branch.
func setBit(bits []uint64, j int, on bool) {
	var b uint64
	if on {
		b = 1
	}
	w, s := j>>6, uint(j&63)
	bits[w] = bits[w]&^(1<<s) | b<<s
}
