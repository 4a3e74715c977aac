package qp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// solveRecord is what one solve of a scenario leaves: its status,
// iteration and restart counts, final ρ, the bits of X and Y, and the
// solver's factorization count after it.
type solveRecord struct {
	status          Status
	iters, restarts int
	rho             float64
	x, y            []float64
	factors         int64
}

// sameRecords reports the first solve at which two scenarios differ.
func sameRecords(got, want []solveRecord) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d solves, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.status != w.status || g.iters != w.iters || g.restarts != w.restarts ||
			math.Float64bits(g.rho) != math.Float64bits(w.rho) || g.factors != w.factors ||
			!floatBitsEqual(g.x, w.x) || !floatBitsEqual(g.y, w.y) {
			return fmt.Errorf("solve %d: %v/%d iters/%d restarts/ρ %g/%d factors, want %v/%d/%d/%g/%d (or X, Y bits differ)",
				i, g.status, g.iters, g.restarts, g.rho, g.factors, w.status, w.iters, w.restarts, w.rho, w.factors)
		}
	}
	return nil
}

// storageCase is one problem of the recycling property: a cut-engine
// shaped grid QP, a random QP with off-diagonal P and general rows, or
// an unconstrained QP that cut rows later constrain.  Its scenario is
// fixed by its seed.
type storageCase struct {
	kind string
	size int
	seed int64
}

func (c storageCase) String() string { return fmt.Sprintf("%s/%d/seed%d", c.kind, c.size, c.seed) }

// problem builds the case's QP and returns it with its variable count.
func (c storageCase) problem(rng *rand.Rand) (*Problem, int) {
	switch c.kind {
	case "grid":
		return gridCutQP(rng, c.size, 2, -5, 0.6, 0.05), c.size * c.size
	case "random":
		p := randomFeasibleQP(rng)
		return p, len(p.Q)
	default: // unconstrained
		n := c.size
		q := make([]float64, n)
		pd := make([]float64, n)
		for j := range q {
			q[j], pd[j] = rng.NormFloat64(), 0.5+rng.Float64()
		}
		return &Problem{P: diagCSR(pd), Q: q}, n
	}
}

// appendBatch draws k rows for the case: grid cuts on a grid, and on the
// other kinds rows of two or three entries with bounds [−5, 5], which
// x = 0 (and the random QP's interior point) satisfies.
func (c storageCase) appendBatch(rng *rand.Rand, n, k int) (*CSR, []float64, []float64) {
	if c.kind == "grid" {
		cols, vals, u := gridCuts(rng, c.size, k)
		l := make([]float64, k)
		for i := range l {
			l[i] = math.Inf(-1)
		}
		return CSRFromRows(n, cols, vals), l, u
	}
	tr := NewTriplet(k, n)
	l, u := make([]float64, k), make([]float64, k)
	for r := 0; r < k; r++ {
		for e := 0; e < 2+rng.Intn(2); e++ {
			tr.Add(r, rng.Intn(n), 2*rng.Float64()-1)
		}
		l[r], u[r] = -5, 5
	}
	return tr.Compile(), l, u
}

// runScenario drives the solver of the case, built into st, through a
// cut engine's life: a cold solve, a warm start and a solve, moved
// bounds and a solve, then three batches of appended rows, each
// followed by a solve (the adaptive ρ moves inside them).  It returns the solve records and the
// solver, still live.
func runScenario(c storageCase, st *storage) ([]solveRecord, *Solver, error) {
	rng := rand.New(rand.NewSource(c.seed))
	prob, n := c.problem(rng)
	set := DefaultSettings()
	set.MaxIter = 4000
	set.EpsAbs, set.EpsRel = 1e-6, 1e-6
	if err := prob.Validate(); err != nil {
		return nil, nil, err
	}
	s := buildSolver(prob, set, st)
	var recs []solveRecord
	solve := func() error {
		res, err := s.SolveCtx(context.Background())
		recs = append(recs, solveRecord{res.Status, res.Iters, res.Restarts, res.RhoFinal, res.X, res.Y, s.nFactor})
		return err
	}
	if err := solve(); err != nil {
		return nil, nil, err
	}
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = 0.1 * rng.NormFloat64()
	}
	if err := s.WarmStart(x0, nil); err != nil {
		return nil, nil, err
	}
	if err := solve(); err != nil {
		return nil, nil, err
	}
	if s.m > 0 {
		l, u := slices.Clone(prob.L), slices.Clone(prob.U)
		for i := range u {
			if !math.IsInf(u[i], 1) {
				u[i] += 0.25
			}
		}
		if err := s.UpdateBounds(l, u); err != nil {
			return nil, nil, err
		}
		if err := solve(); err != nil {
			return nil, nil, err
		}
	}
	for batch := 0; batch < 3; batch++ {
		a, l, u := c.appendBatch(rng, n, 1+rng.Intn(3))
		if err := s.AppendRows(a, l, u); err != nil {
			return nil, nil, err
		}
		if err := solve(); err != nil {
			return nil, nil, err
		}
	}
	return recs, s, nil
}

// mustScenario is runScenario for the test goroutine.
func mustScenario(t *testing.T, c storageCase, st *storage) ([]solveRecord, *Solver) {
	t.Helper()
	recs, s, err := runScenario(c, st)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return recs, s
}

// storageCases returns the property's problems: for every target a
// larger and a smaller case of the same kind whose released storage it
// is rebuilt in.
func storageCases() []struct{ target, larger, smaller storageCase } {
	var out []struct{ target, larger, smaller storageCase }
	for i, g := range []int{5, 7, 9} {
		seed := int64(10 * (i + 1))
		out = append(out, struct{ target, larger, smaller storageCase }{
			storageCase{"grid", g, seed}, storageCase{"grid", g + 3, seed + 1}, storageCase{"grid", g - 2, seed + 2}})
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, struct{ target, larger, smaller storageCase }{
			storageCase{"random", 0, 100 + seed}, storageCase{"grid", 8, 200 + seed}, storageCase{"unconstrained", 3, 300 + seed}})
	}
	out = append(out, struct{ target, larger, smaller storageCase }{
		storageCase{"unconstrained", 12, 400}, storageCase{"random", 0, 401}, storageCase{"unconstrained", 2, 402}})
	return out
}

// TestRecycledSolverMatchesFresh: a solver built into the storage of a
// released solver, larger or smaller than it, is the solver built into
// fresh memory.  Every case runs the same scenario (warm start, moved
// bounds, appended row batches, ρ moves) three times: on fresh storage,
// on the storage a larger released solver left, and on a smaller one's;
// the runs must agree bit for bit on every solve's X and Y, status,
// iterations, restarts, final ρ and factorization count.
func TestRecycledSolverMatchesFresh(t *testing.T) {
	rhoMoves := 0
	for _, tc := range storageCases() {
		want, s := mustScenario(t, tc.target, new(storage))
		s.detach()
		for _, r := range want {
			if r.rho != admmRho {
				rhoMoves++
			}
		}
		for _, donor := range []storageCase{tc.larger, tc.smaller} {
			_, d := mustScenario(t, donor, new(storage))
			got, s := mustScenario(t, tc.target, d.detach())
			if err := sameRecords(got, want); err != nil {
				t.Errorf("%v rebuilt in the storage of %v: %v", tc.target, donor, err)
			}
			s.detach()
		}
	}
	if rhoMoves == 0 {
		t.Error("no scenario moved ρ: the property no longer covers refactorization")
	}
}

// TestSolverPoolConcurrent builds and releases solvers through the
// package pool from several goroutines at once, each running scenarios
// whose fresh-storage records were taken first, so pooled storage moves
// between goroutines and problems of every size.  Run under -race it
// also checks that the pool hands no storage to two solvers.
func TestSolverPoolConcurrent(t *testing.T) {
	var cases []storageCase
	for _, tc := range storageCases() {
		cases = append(cases, tc.target, tc.larger, tc.smaller)
	}
	want := make([][]solveRecord, len(cases))
	for i, c := range cases {
		var s *Solver
		want[i], s = mustScenario(t, c, new(storage))
		s.detach()
	}
	// Each worker runs half the cases, the workers in different orders,
	// so the pool passes storage between goroutines and sizes.
	const workers = 3
	errs := make(chan error, workers*len(cases))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < len(cases)/2; k++ {
				i := (2*k + w) % len(cases)
				got, s, err := runScenario(cases[i], storagePool.Get().(*storage))
				if err == nil {
					err = sameRecords(got, want[i])
					s.Release()
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d, %v: %v", w, cases[i], err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReleasedSolverPanics: Release poisons the solver, so every method
// of it, a second Release and a batch that lists it panic instead of
// running on storage another solver may own.
func TestReleasedSolverPanics(t *testing.T) {
	prob := randomBoxQP(6, 3, 1)
	live, err := NewSolver(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Release()
	x := make([]float64, 6)
	for name, call := range map[string]func(s *Solver){
		"SolveCtx":      func(s *Solver) { s.SolveCtx(context.Background()) },
		"SolveBatchCtx": func(s *Solver) { SolveBatchCtx(context.Background(), []*Solver{live, s}) },
		"AppendRows": func(s *Solver) {
			s.AppendRows(CSRFromRows(6, [][]int{{0}}, [][]float64{{1}}), []float64{0}, []float64{1})
		},
		"WarmStart":    func(s *Solver) { s.WarmStart(x, nil) },
		"UpdateBounds": func(s *Solver) { s.UpdateBounds(prob.L, prob.U) },
		"UpdateLinear": func(s *Solver) { s.UpdateLinear(prob.Q) },
		"Objective":    func(s *Solver) { s.Objective(x) },
		"MaxViolation": func(s *Solver) { s.MaxViolation(x) },
		"Release":      func(s *Solver) { s.Release() },
	} {
		s, err := NewSolver(prob, DefaultSettings())
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "after Release") {
					t.Errorf("%s on a released solver: recovered %v, want the use-after-Release panic", name, r)
				}
			}()
			call(s)
		}()
	}
}

// cutRoundAllocs bounds the heap allocations of one steady-state cut
// round (retarget, append one row, solve): the result the solve returns
// (its Result, X and Y) and the per-solve bookkeeping of the ADMM loop
// (lockstep's result, counter, warm-start, stall and live-member
// slices).  Appending a row allocates nothing once the solver's buffers
// have grown to the pattern.
const cutRoundAllocs = 11

// TestCutRoundSteadyStateAllocs runs cut rounds on a grid QP the way
// the cut engine does — move every cut's bound, append one cut row,
// solve warm — and holds the average allocation count of a round to
// cutRoundAllocs.  A twin solver runs the same rounds first and is
// released, and the measured solver is built into its storage, so the
// count is that of a recycled solver whose buffers have seen the
// pattern grow.  Before recycling and buffer reuse a round took 63.
func TestCutRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(5))
	const g, rounds = 7, 40
	n := g * g
	prob := gridCutQP(rng, g, 2, -5, 0.6, 0.05)
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	// The rows and bounds of every round, drawn before the measurement.
	cols, vals, cu := gridCuts(rng, g, rounds+1)
	rows := make([]*CSR, rounds+1)
	for k := range rows {
		rows[k] = CSRFromRows(n, cols[k:k+1], vals[k:k+1])
	}
	m0 := prob.A.M
	ctx := context.Background()
	var s *Solver
	var l, u []float64
	round := 0
	cutRound := func() {
		m := m0 + round
		for i := m0 - 2; i < m; i++ {
			u[i] += 0.01 // the cut rows' bounds move with τ
		}
		if err := s.UpdateBounds(l[:m], u[:m]); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendRows(rows[round], l[m:m+1], u[m:m+1]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SolveCtx(ctx); err != nil {
			t.Fatal(err)
		}
		round++
	}
	start := func(st *storage) {
		s, round = buildSolver(prob, DefaultSettings(), st), 0
		l, u = slices.Clone(prob.L), slices.Clone(prob.U)
		for k := range cu {
			l, u = append(l, math.Inf(-1)), append(u, cu[k])
		}
	}
	start(new(storage))
	for round <= rounds {
		cutRound()
	}
	start(s.detach())
	allocs := testing.AllocsPerRun(rounds, cutRound)
	s.detach()
	t.Logf("%.0f allocations per cut round over %d rounds", allocs, rounds)
	if allocs > cutRoundAllocs {
		t.Errorf("a cut round allocates %.0f times, want at most %d", allocs, cutRoundAllocs)
	}
}
