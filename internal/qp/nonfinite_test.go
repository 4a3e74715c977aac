package qp

import (
	"math"
	"strings"
	"testing"
)

// TestRejectsNonFiniteData: every entry point that takes problem data
// refuses NaN and ±Inf in P, q, A and the iterates, and NaN bounds.
// Before the check a NaN passed every residual test (NaN > tol is
// false), so q = [NaN, 1] or q₀ = +Inf came back "solved" with x₀ = NaN,
// and u₀ = NaN silently dropped the bound.
func TestRejectsNonFiniteData(t *testing.T) {
	nan, pinf := math.NaN(), math.Inf(1)
	// min ½‖x‖² + qᵀx  s.t.  l ≤ x₀ + x₁ ≤ u,  0 ≤ x₀ ≤ 1.
	problem := func() *Problem {
		return &Problem{
			P: diagCSR([]float64{1, 1}),
			Q: []float64{-1, 1},
			A: CSRFromRows(2, [][]int{{0, 1}, {0}}, [][]float64{{1, 1}, {1}}),
			L: []float64{-pinf, 0},
			U: []float64{1, 1},
		}
	}
	solver := func(t *testing.T) *Solver {
		t.Helper()
		s, err := NewSolver(problem(), DefaultSettings())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	row := func(v float64) *CSR { return CSRFromRows(2, [][]int{{0, 1}}, [][]float64{{v, 1}}) }
	cases := []struct {
		name, want string
		run        func(t *testing.T) error
	}{
		{"NewSolver q NaN", "q 0 is NaN", func(t *testing.T) error {
			p := problem()
			p.Q[0] = nan
			_, err := NewSolver(p, DefaultSettings())
			return err
		}},
		{"NewSolver q +Inf", "q 0 is +Inf", func(t *testing.T) error {
			p := problem()
			p.Q[0] = pinf
			_, err := NewSolver(p, DefaultSettings())
			return err
		}},
		{"Validate P NaN", "P value 1 is NaN", func(t *testing.T) error {
			p := problem()
			p.P.Val[1] = nan
			return p.Validate()
		}},
		{"Validate A -Inf", "A value 2 is -Inf", func(t *testing.T) error {
			p := problem()
			p.A.Val[2] = -pinf
			return p.Validate()
		}},
		{"Validate u NaN", "constraint 0 has a NaN bound", func(t *testing.T) error {
			p := problem()
			p.U[0] = nan
			return p.Validate()
		}},
		{"AppendRows A NaN", "appended A value 0 is NaN", func(t *testing.T) error {
			return solver(t).AppendRows(row(nan), []float64{-pinf}, []float64{1})
		}},
		{"AppendRows l NaN", "appended constraint 0 has a NaN bound", func(t *testing.T) error {
			return solver(t).AppendRows(row(1), []float64{nan}, []float64{1})
		}},
		{"UpdateBounds u NaN", "constraint 1 has a NaN bound", func(t *testing.T) error {
			return solver(t).UpdateBounds([]float64{-pinf, 0}, []float64{1, nan})
		}},
		{"UpdateLinear q +Inf", "q 1 is +Inf", func(t *testing.T) error {
			return solver(t).UpdateLinear([]float64{0, pinf})
		}},
		{"WarmStart x NaN", "warm-start x 0 is NaN", func(t *testing.T) error {
			return solver(t).WarmStart([]float64{nan, 0}, nil)
		}},
		{"WarmStart y -Inf", "warm-start y 1 is -Inf", func(t *testing.T) error {
			return solver(t).WarmStart(nil, []float64{0, -pinf})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run(t)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
		})
	}

	// Infinite bounds stay legal everywhere, and the clean problem
	// still solves.
	s := solver(t)
	if err := s.UpdateBounds([]float64{-pinf, -pinf}, []float64{pinf, 1}); err != nil {
		t.Fatalf("UpdateBounds with ±Inf bounds: %v", err)
	}
	if err := s.AppendRows(row(1), []float64{-pinf}, []float64{pinf}); err != nil {
		t.Fatalf("AppendRows with ±Inf bounds: %v", err)
	}
	if res := s.Solve(); res.Status != Solved {
		t.Fatalf("clean problem: status %v", res.Status)
	}
}
