package qp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randomBoxQP builds a strictly convex box-and-coupling QP with n
// variables, m random 4-entry coupling rows and a unit box per
// variable.
func randomBoxQP(n, m int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	pt := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		pt.Add(i, i, 1+rng.Float64())
		if i+1 < n {
			v := 0.2 * rng.Float64()
			pt.Add(i, i+1, v)
			pt.Add(i+1, i, v)
		}
	}
	at := NewTriplet(m+n, n)
	l := make([]float64, m+n)
	u := make([]float64, m+n)
	for r := 0; r < m; r++ {
		for k := 0; k < 4; k++ {
			at.Add(r, rng.Intn(n), rng.NormFloat64())
		}
		l[r] = -5
		u[r] = 5
	}
	for i := 0; i < n; i++ {
		at.Add(m+i, i, 1)
		l[m+i] = -1
		u[m+i] = 1
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return &Problem{P: pt.Compile(), Q: q, A: at.Compile(), L: l, U: u}
}

// TestSolveCtxCanceledAtIterationBoundary asserts the cancellation
// property: a canceled context stops the ADMM loop at the very next
// iteration boundary (zero completed iterations for a pre-canceled
// context) and surfaces a wrapped context.Canceled.
func TestSolveCtxCanceledAtIterationBoundary(t *testing.T) {
	prob := randomBoxQP(100, 30, 11)
	s, err := NewSolver(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.SolveCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("canceled solve must still return the best iterate")
	}
	if res.Iters != 0 {
		t.Fatalf("pre-canceled solve completed %d iterations, want 0", res.Iters)
	}
}
