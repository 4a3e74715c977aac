package qp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// applyRelaxation is the reference for the relaxed update that
// Solver.sweep fuses into its row pass, as a pass of its own given
// z̃ = A x̃ in zt: x blends toward x̃, z projects the relaxed constraint
// value onto [l, u], y takes the matching dual step, and the per-row
// dual movement accumulates into s.dyAcc.
func (s *Solver) applyRelaxation(zt []float64) {
	alpha, beta := s.set.Alpha, 1-s.set.Alpha
	x, xt := s.x[:s.n], s.xt[:s.n]
	for j := range x {
		x[j] = alpha*xt[j] + beta*x[j]
	}
	rho := s.rho
	z, y, l, u, dy := s.z[:s.m], s.y[:s.m], s.l[:s.m], s.u[:s.m], s.dyAcc[:s.m]
	for i := range z {
		zc := alpha*zt[i] + beta*z[i] + y[i]/rho
		zNew := zc
		if zNew < l[i] {
			zNew = l[i]
		} else if zNew > u[i] {
			zNew = u[i]
		}
		yNew := rho * (zc - zNew)
		dy[i] += yNew - y[i]
		z[i] = zNew
		y[i] = yNew
	}
}

// referenceIteration is what Solver.sweep fuses, run as separate
// passes: z̃ = A x̃ by CSR.MulVec, the relaxed update, then the next
// right-hand side σx − q + Aᵀ(ρz − y) from a ρz − y buffer and
// CSR.AddMulTVec.
func (s *Solver) referenceIteration() {
	zt := make([]float64, s.m)
	s.a.MulVec(zt, s.xt)
	s.applyRelaxation(zt)
	tmp := make([]float64, s.m)
	for i := range tmp {
		tmp[i] = s.rho*s.z[i] - s.y[i]
	}
	for j := range s.rhs {
		s.rhs[j] = s.set.Sigma*s.x[j] - s.q[j]
	}
	s.a.AddMulTVec(s.rhs, tmp)
}

// sweepState builds a bare solver over a (unscaled) with random
// iterate state.  Every third column of x̃ is zero, half of them
// negative zeros, and every fifth row starts at z = y = 0, so rows whose
// ρz_i − y_i is exactly zero and products that are −0 both occur.
func sweepState(rng *rand.Rand, a *CSR) *Solver {
	a.markOneRows()
	n, m := a.N, a.M
	s := &Solver{set: DefaultSettings(), n: n, m: m, a: a, rho: 0.1 + rng.Float64()}
	vec := func(k int, scale float64) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return v
	}
	s.x, s.xt, s.q, s.rhs = vec(n, 1), vec(n, 1), vec(n, 1), vec(n, 1)
	for j := 0; j < n; j += 3 {
		s.xt[j] = 0
		if j%2 == 0 {
			s.xt[j] = math.Copysign(0, -1)
		}
	}
	s.z, s.y, s.dyAcc = vec(m, 1), vec(m, 0.1), vec(m, 0.01)
	s.l, s.u = make([]float64, m), make([]float64, m)
	for i := 0; i < m; i++ {
		if i%5 == 0 {
			s.z[i], s.y[i] = 0, 0
		}
		s.l[i], s.u[i] = -0.5-rng.Float64(), 0.5+rng.Float64()
		if i%7 == 3 {
			s.l[i] = math.Inf(-1)
		}
	}
	return s
}

// cloneSweepState deep-copies the iterate state sweep touches.
func cloneSweepState(s *Solver) *Solver {
	c := *s
	for _, v := range []*[]float64{&c.x, &c.xt, &c.q, &c.rhs, &c.z, &c.y, &c.dyAcc, &c.l, &c.u} {
		*v = append([]float64(nil), (*v)...)
	}
	return &c
}

// rowsCSR builds an n-column CSR with one row per entry of widths: row
// r holds widths[r] distinct random columns, in increasing order, with
// values in ±[0.5, 1.5).
func rowsCSR(rng *rand.Rand, n int, widths []int) *CSR {
	cols := make([][]int, len(widths))
	vals := make([][]float64, len(widths))
	for r, w := range widths {
		perm := rng.Perm(n)[:w]
		slices.Sort(perm)
		cols[r] = perm
		for range perm {
			vals[r] = append(vals[r], (0.5+rng.Float64())*float64(1-2*rng.Intn(2)))
		}
	}
	return CSRFromRows(n, cols, vals)
}

// TestSweepMatchesReference requires Solver.sweep to reproduce, bit for
// bit, z̃ = A x̃ by CSR.MulVec, the reference relaxed update and a
// right-hand side built from a ρz − y buffer with CSR.AddMulTVec, on
// matrices with and without a one-entry prefix, with and without a
// two-entry run after it, with empty rows and with one- and two-entry
// rows outside the fast-path runs.  assembleXStepRHS must rebuild the
// same right-hand side from the swept state.
func TestSweepMatchesReference(t *testing.T) {
	rep := func(w, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = w
		}
		return out
	}
	cat := func(parts ...[]int) []int {
		var out []int
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	const n = 40
	cases := []struct {
		name       string
		widths     []int
		ones, twos int
	}{
		{"box+smooth+cuts", cat(rep(1, n), rep(2, 70), rep(12, 5)), n, 70},
		{"box+cuts", cat(rep(1, n), rep(3, 6), rep(2, 4)), n, 0},
		{"smooth+cuts", cat(rep(2, 30), rep(1, 3), rep(9, 4)), 0, 30},
		{"generic", cat(rep(5, 8), rep(1, 3), rep(2, 3), rep(0, 2), rep(4, 3)), 0, 0},
		{"box only", rep(1, n), n, 0},
		{"smooth only", rep(2, 25), 0, 25},
		{"empty rows", cat(rep(1, 5), rep(2, 6), rep(0, 3), rep(2, 2), rep(1, 2), rep(0, 1)), 5, 6},
		{"no rows", nil, 0, 0},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			a := rowsCSR(rng, n, tc.widths)
			if tc.ones == n {
				// A box prefix covers every column once, as the dose box does.
				for r := 0; r < n; r++ {
					a.Col[r] = r
				}
			}
			got := sweepState(rng, a)
			if a.ones != tc.ones || a.twos != tc.twos {
				t.Fatalf("fast-path runs (%d, %d), want (%d, %d)", a.ones, a.twos, tc.ones, tc.twos)
			}
			want := cloneSweepState(got)
			zeros := 0
			for it := 0; it < 3; it++ {
				got.sweep()
				want.referenceIteration()
				for name, pair := range map[string][2][]float64{
					"x": {got.x, want.x}, "z": {got.z, want.z}, "y": {got.y, want.y},
					"dy": {got.dyAcc, want.dyAcc}, "rhs": {got.rhs, want.rhs},
				} {
					if !floatBitsEqual(pair[0], pair[1]) {
						t.Fatalf("iteration %d: %s differs from the reference passes", it, name)
					}
				}
				rebuilt := cloneSweepState(got)
				rebuilt.assembleXStepRHS()
				if !floatBitsEqual(rebuilt.rhs, got.rhs) {
					t.Fatalf("iteration %d: assembleXStepRHS differs from the swept right-hand side", it)
				}
				for i := range got.z {
					if got.rho*got.z[i]-got.y[i] == 0 {
						zeros++
					}
				}
				// Next x̃: fresh values, keeping the zero columns.
				for j := range got.xt {
					if got.xt[j] != 0 {
						v := rng.NormFloat64()
						got.xt[j], want.xt[j] = v, v
					}
				}
			}
			if len(tc.widths) > 0 && zeros == 0 {
				t.Error("no row had ρz − y exactly zero: the zero skip went untested")
			}
		})
	}
}
