package lp

import (
	"fmt"
	"math"
	"math/rand"
)

// ftranFull and btranFull are luFactor.ftran and btran walking every
// elimination step, identity steps included: the references the step-list
// solves must equal bit for bit.
func ftranFull(lu *luFactor, v []float64) {
	n := len(lu.pivRow)
	for k := 0; k < n; k++ {
		t := v[lu.pivRow[k]]
		if t == 0 {
			continue
		}
		for s := lu.lStart[k]; s < lu.lStart[k+1]; s++ {
			v[lu.lIdx[s]] -= lu.lVal[s] * t
		}
	}
	for k := n - 1; k >= 0; k-- {
		r := lu.pivRow[k]
		t := v[r]
		if t == 0 {
			continue
		}
		t *= lu.uDiagInv[k]
		v[r] = t
		for s := lu.uStart[k]; s < lu.uStart[k+1]; s++ {
			v[lu.pivRow[lu.uIdx[s]]] -= lu.uVal[s] * t
		}
	}
}

func btranFull(lu *luFactor, v []float64) {
	n := len(lu.pivRow)
	for k := 0; k < n; k++ {
		r := lu.pivRow[k]
		t := v[r]
		for s := lu.uStart[k]; s < lu.uStart[k+1]; s++ {
			t -= lu.uVal[s] * v[lu.pivRow[lu.uIdx[s]]]
		}
		v[r] = t * lu.uDiagInv[k]
	}
	for k := n - 1; k >= 0; k-- {
		r := lu.pivRow[k]
		t := v[r]
		for s := lu.lStart[k]; s < lu.lStart[k+1]; s++ {
			t -= lu.lVal[s] * v[lu.lIdx[s]]
		}
		v[r] = t
	}
}

// diffBits returns the first index where a and b differ bit for bit, with
// +0 and -0 taken as equal, or -1 when they agree.
func diffBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(a[i] == 0 && b[i] == 0) {
			return i
		}
	}
	return -1
}

// SparseCheck compares, while a Solver solves, the sparse solves of its
// revised engine with full walks: every factorization's step-list FTRAN and
// BTRAN against ftranFull and btranFull (on every unit vector and two
// random ones), and every steepest-edge rho against the plain eta BTRAN
// followed by btranFull.  At every steepest-edge candidate refill it checks
// that each basic column's maintained reduced cost is exactly 0.  Err holds
// the first difference; the counters say what was covered.
type SparseCheck struct {
	CrashFactors int // factorizations before the first pivot (crash bases)
	MidFactors   int // refactorizations after pivots
	MinusOne     int // factorizations with an entry-free U step of diagonal -1
	Rho          int // rho BTRANs compared
	RhoWithEtas  int // of them, with a nonempty update-eta file
	Refills      int // refills whose basic reduced costs were checked
	Err          error

	r         *revisedSolver
	rng       *rand.Rand
	got, want []float64
	randVec   [2][]float64
	allocs    int // grabFloats' counter, unused
}

// AttachSparseCheck installs a SparseCheck on s's revised engine.
func AttachSparseCheck(s *Solver) *SparseCheck {
	c := &SparseCheck{r: &s.rev, rng: rand.New(rand.NewSource(1))}
	s.rev.probe = c.probe
	return c
}

func (c *SparseCheck) fail(format string, args ...any) {
	if c.Err == nil {
		c.Err = fmt.Errorf(format, args...)
	}
}

func (c *SparseCheck) probe(site probeSite, row int) {
	r := c.r
	c.got = grabFloats(c.got, r.rows, &c.allocs)
	c.want = grabFloats(c.want, r.rows, &c.allocs)
	switch site {
	case probeFactor:
		if r.iterations == 0 {
			c.CrashFactors++
		} else {
			c.MidFactors++
		}
		c.checkFactor()
	case probeRho:
		c.Rho++
		if r.eta.count() > 0 {
			c.RhoWithEtas++
		}
		clear(c.want)
		c.want[row] = 1
		r.eta.btran(c.want)
		btranFull(&r.lu, c.want)
		if i := diffBits(r.rho, c.want); i >= 0 {
			c.fail("pivot %d: rho of row %d has %v at row %d, the full BTRAN %v",
				r.iterations, row, r.rho[i], i, c.want[i])
		}
	case probeRefill:
		c.Refills++
		for j := 0; j < r.priceLimit(); j++ {
			if r.inBasis[j] && r.rc[j] != 0 {
				c.fail("pivot %d: refill with basic column %d at rc %v", r.iterations, j, r.rc[j])
			}
		}
	}
}

// checkFactor compares the step-list solves of the fresh factorization with
// the full walks.
func (c *SparseCheck) checkFactor() {
	r, lu := c.r, &c.r.lu
	for k := range lu.pivRow {
		if lu.uDiagInv[k] == -1 && lu.uStart[k+1] == lu.uStart[k] {
			c.MinusOne++
			break
		}
	}
	for i := range c.randVec {
		v := grabFloats(c.randVec[i], r.rows, &c.allocs)
		for j := range v {
			switch c.rng.Intn(4) {
			case 0:
				v[j] = 0
			case 1:
				v[j] = math.Copysign(0, -1)
			default:
				v[j] = c.rng.NormFloat64()
			}
		}
		c.randVec[i] = v
	}
	for i := -len(c.randVec); i < r.rows; i++ {
		for _, dir := range []string{"FTRAN", "BTRAN"} {
			if i < 0 {
				copy(c.got, c.randVec[-i-1])
			} else {
				clear(c.got)
				c.got[i] = 1
			}
			copy(c.want, c.got)
			if dir == "FTRAN" {
				lu.ftran(c.got)
				ftranFull(lu, c.want)
			} else {
				lu.btran(c.got)
				btranFull(lu, c.want)
			}
			if j := diffBits(c.got, c.want); j >= 0 {
				c.fail("refactorization %d, %s of vector %d: %v at row %d, the full walk %v",
					r.refactors, dir, i, c.got[j], j, c.want[j])
				return
			}
		}
	}
}
