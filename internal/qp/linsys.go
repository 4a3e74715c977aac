// The ADMM x-step linear system.  Every iteration solves
//
//	(P + σI + ρAᵀA) x̃ = σx − q + Aᵀ(ρz − y)
//
// against the same matrix K until ρ adapts or constraint rows are
// appended.  ldltBackend keeps a cached sparse LDLᵀ factor of K: factor
// once per ρ, then every x-step is two triangular solves, with no inner
// loop.  K is symmetric positive definite by construction when σ > 0,
// so a zero pivot is a broken premise, not a numerical accident: the
// solve stops at that x-step with an error wrapping
// errNotPositiveDefinite.
package qp

// factorCacheCap is the ρ-ladder factor-cache capacity.  Ten slots
// cover the working set the adaptive-ρ trajectory actually revisits:
// the initial rung, the settled rung, and the handful of rungs the
// eager adapter walks through on the way (plus stall-restart returns to
// the initial rung).
const factorCacheCap = 10

// factorSnap is one cached numeric factor: the (panel storage, d) pair
// of a finished factorization, keyed by the exact ρ it was computed
// for and the pattern epoch it belongs to.  Snapshots are immutable
// once stored; restoring one is two flat copies — orders of magnitude
// cheaper than the factorization flops it replaces.
type factorSnap struct {
	rho   float64
	epoch int
	px    []float64
	d     []float64
	use   int64
}

// ldltBackend caches one live sparse factor of K plus a small LRU of
// numeric snapshots keyed by (ρ, pattern epoch).  ADMM ρ-adaptation
// quantizes onto the ρ-ladder (see rhoRung), so stall restarts
// and ρ flips revisit previously factored rungs and restore the cached
// (lx, d) instead of re-running the numeric phase.  Appending rows
// bumps the epoch and flushes the cache — a snapshot never outlives
// its pattern.
type ldltBackend struct {
	s        *Solver
	f        *ldltFactor
	rho      float64
	factored bool
	epoch    int
	cache    []*factorSnap
	useSeq   int64
	// Snapshots are stored and restored by pointer swap, never by copy:
	// aliased is the cache entry whose buffers the live factor currently
	// uses (nil when the live buffers are private), and freePx/freeD
	// recycle the buffers of evicted entries for the next numeric
	// factorization.  Sound because the numeric kernels overwrite every
	// true-pattern slot and never touch padding, so any same-epoch
	// buffer (or a fresh zeroed allocation) keeps the padded-zeros
	// invariant; the pools are dropped with the cache on epoch bumps.
	aliased *factorSnap
	freePx  [][]float64
	freeD   [][]float64
	// built records the ρ rungs numerically factored in the current
	// epoch.  It splits the factor counters by the work they represent:
	// the first build of an (epoch, rung) pair is a factorization —
	// unavoidable, the numbers did not exist — while building a pair
	// again is a refactorization, repeat work the snapshot cache exists
	// to eliminate (it only happens after an eviction).
	built map[float64]bool
}

// newLDLTBackend runs the symbolic analysis of K for the solver's
// scaled data; the first x-step runs the numeric phase.
func newLDLTBackend(s *Solver) *ldltBackend {
	f := newLDLTFactor(s.p, s.set.Sigma, s.a, s.n)
	return &ldltBackend{s: s, f: f, built: make(map[float64]bool)}
}

// lookup returns the cached snapshot for ρ in the current pattern
// epoch, refreshing its LRU stamp, or nil.
func (b *ldltBackend) lookup(rho float64) *factorSnap {
	for _, snap := range b.cache {
		if snap.rho == rho && snap.epoch == b.epoch {
			b.useSeq++
			snap.use = b.useSeq
			return snap
		}
	}
	return nil
}

// store snapshots the live factor for ρ by taking ownership of its
// buffers (zero copies), evicting the least-recently used entry at
// capacity and recycling the evicted buffers.
func (b *ldltBackend) store(rho float64) {
	if len(b.cache) >= factorCacheCap {
		lru := 0
		for i, snap := range b.cache {
			if snap.use < b.cache[lru].use {
				lru = i
			}
		}
		if ev := b.cache[lru]; ev != b.aliased {
			b.freePx = append(b.freePx, ev.px)
			b.freeD = append(b.freeD, ev.d)
		}
		b.cache[lru] = b.cache[len(b.cache)-1]
		b.cache = b.cache[:len(b.cache)-1]
		b.s.nCacheEvict++
	}
	b.useSeq++
	snap := &factorSnap{rho: rho, epoch: b.epoch, px: b.f.px, d: b.f.d, use: b.useSeq}
	b.cache = append(b.cache, snap)
	b.aliased = snap
}

// ensureFactored makes the live factor current for s.rho: restore a
// cached snapshot when the rung was factored before in this pattern
// epoch, run the numeric phase otherwise.  A zero pivot leaves no
// current factor: the broken buffers are private (never a snapshot's),
// and the next call factors again.
func (b *ldltBackend) ensureFactored() error {
	s := b.s
	if b.factored && b.rho == s.rho {
		return nil
	}
	if snap := b.lookup(s.rho); snap != nil {
		b.f.adopt(snap.px, snap.d)
		b.aliased = snap
		s.nCacheHit++
	} else {
		if b.aliased != nil {
			// The live buffers belong to a cache entry: factor into a
			// recycled (same-pattern, padding still zero) or fresh pair
			// so the snapshot survives intact.
			var px, d []float64
			if k := len(b.freePx); k > 0 {
				px, b.freePx = b.freePx[k-1], b.freePx[:k-1]
				d, b.freeD = b.freeD[k-1], b.freeD[:k-1]
			} else {
				px = make([]float64, len(b.f.px))
				d = make([]float64, len(b.f.d))
			}
			b.f.adopt(px, d)
			b.aliased = nil
		}
		if err := b.f.Refactor(s.rho); err != nil {
			b.factored = false
			return err
		}
		s.nDenseFlops += b.f.denseFactorFlops
		if b.built[s.rho] {
			s.nRefactor++
		} else {
			s.nFactor++
			b.built[s.rho] = true
		}
		b.store(s.rho)
	}
	b.rho = s.rho
	b.factored = true
	return nil
}

// solveBatch solves K x[q] = b[q] for the current s.rho and every
// right-hand side in one pass that streams each supernode of the factor
// through cache once for the whole block.  Each x[q] is bitwise
// identical to solving its right-hand side alone.
func (b *ldltBackend) solveBatch(xs, bs [][]float64) error {
	if err := b.ensureFactored(); err != nil {
		return err
	}
	s := b.s
	b.f.SolveBatch(xs, bs)
	nrhs := int64(len(xs))
	s.nTriSolve += nrhs
	s.nDenseFlops += nrhs * b.f.denseSolveFlops
	return nil
}

// appendRows re-syncs the factor after rows were appended to s.a.
func (b *ldltBackend) appendRows(fromRow int) {
	b.f.AppendRows(b.s.a, fromRow)
	b.factored = false
	b.epoch++
	// New pattern: snapshots, buffer pools and the alias all describe
	// the old one.  Dropping the alias makes the live buffers private
	// again (every snapshot that could claim them is gone).
	b.cache = nil
	b.freePx, b.freeD = nil, nil
	b.aliased = nil
	clear(b.built)
}
