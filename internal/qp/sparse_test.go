package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTripletCompile(t *testing.T) {
	tr := NewTriplet(3, 4)
	tr.Add(0, 1, 2)
	tr.Add(2, 3, -1)
	tr.Add(0, 1, 3) // duplicate: must sum to 5
	tr.Add(1, 0, 4)
	tr.Add(1, 2, 0) // exact zero: dropped
	if tr.NNZ() != 4 {
		t.Errorf("triplet NNZ = %d, want 4 (zero dropped at insert)", tr.NNZ())
	}
	c := tr.Compile()
	if c.M != 3 || c.N != 4 {
		t.Fatalf("dims = %d×%d", c.M, c.N)
	}
	d := c.Dense()
	want := [][]float64{{0, 5, 0, 0}, {4, 0, 0, 0}, {0, 0, 0, -1}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Errorf("dense[%d][%d] = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
	if c.NNZ() != 3 {
		t.Errorf("CSR NNZ = %d, want 3", c.NNZ())
	}
}

func TestTripletCancellation(t *testing.T) {
	tr := NewTriplet(1, 1)
	tr.Add(0, 0, 2)
	tr.Add(0, 0, -2)
	c := tr.Compile()
	if c.NNZ() != 0 {
		t.Errorf("cancelled entry should be dropped, NNZ = %d", c.NNZ())
	}
}

func TestTripletPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	NewTriplet(2, 2).Add(2, 0, 1)
}

func randCSR(rng *rand.Rand, m, n int, density float64) *CSR {
	tr := NewTriplet(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				tr.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return tr.Compile()
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randCSR(rng, m, n, 0.4)
		d := a.Dense()
		x := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := make([]float64, m)
		a.MulVec(y, x)
		for i := 0; i < m; i++ {
			want := 0.0
			for j := 0; j < n; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-12 {
				t.Fatalf("MulVec mismatch at row %d: %v vs %v", i, y[i], want)
			}
		}
		// Transpose product.
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		yt := make([]float64, n)
		a.MulTVec(yt, v)
		for j := 0; j < n; j++ {
			want := 0.0
			for i := 0; i < m; i++ {
				want += d[i][j] * v[i]
			}
			if math.Abs(yt[j]-want) > 1e-12 {
				t.Fatalf("MulTVec mismatch at col %d: %v vs %v", j, yt[j], want)
			}
		}
		// AddMulTVec accumulates.
		y2 := append([]float64(nil), yt...)
		a.AddMulTVec(y2, v)
		for j := range y2 {
			if math.Abs(y2[j]-2*yt[j]) > 1e-12 {
				t.Fatalf("AddMulTVec should accumulate")
			}
		}
	}
}

func TestRowColNorms(t *testing.T) {
	tr := NewTriplet(2, 3)
	tr.Add(0, 0, -3)
	tr.Add(0, 2, 1)
	tr.Add(1, 1, 2)
	c := tr.Compile()
	rn := c.RowInfNorms()
	if rn[0] != 3 || rn[1] != 2 {
		t.Errorf("RowInfNorms = %v", rn)
	}
	cn := c.colInfNormsInto([]float64{7, 7, 7})
	if cn[0] != 3 || cn[1] != 2 || cn[2] != 1 {
		t.Errorf("colInfNormsInto = %v", cn)
	}
}

func TestScaleRowsCols(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 2)
	tr.Add(1, 1, 3)
	c := tr.Compile()
	c.ScaleRows([]float64{2, 10})
	c.ScaleCols([]float64{1, 0.5})
	d := c.Dense()
	want := [][]float64{{2, 2}, {0, 15}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Errorf("scaled[%d][%d] = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := NewTriplet(1, 1)
	tr.Add(0, 0, 1)
	c := tr.Compile()
	cl := c.Clone()
	cl.Val[0] = 99
	if c.Val[0] != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot")
	}
	if InfNorm([]float64{-3, 2}) != 3 {
		t.Error("InfNorm")
	}
	if InfNorm(nil) != 0 {
		t.Error("InfNorm(nil)")
	}
	y := []float64{3, -1}
	Scale(y, -1)
	if y[0] != -3 || y[1] != 1 {
		t.Errorf("Scale = %v", y)
	}
}

// TestDotBlockedFold pins Dot's reduction tree: partial sums over fixed
// 1024-element blocks, a lone block returned as is, several blocks
// folded from zero in block order.  Solver.Objective reports Dot
// values, so any other summation order would change reported
// objectives.  The lengths straddle the block boundary.
func TestDotBlockedFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 1023, 1024, 1025, 5000} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * float64(i%13)
			b[i] = rng.NormFloat64()
		}
		var partials []float64
		for lo := 0; lo < n; lo += 1024 {
			p := 0.0
			for i := lo; i < min(lo+1024, n); i++ {
				p += a[i] * b[i]
			}
			partials = append(partials, p)
		}
		want := partials[0]
		if len(partials) > 1 {
			want = 0
			for _, p := range partials {
				want += p
			}
		}
		if got := Dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Dot = %v (%x), blocked fold %v (%x)", n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// Property: (Ax)ᵀy == xᵀ(Aᵀy) for random sparse matrices — adjoint
// consistency of MulVec and MulTVec.
func TestPropertyAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		a := randCSR(rng, m, n, 0.3)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, m)
		a.MulVec(ax, x)
		aty := make([]float64, n)
		a.MulTVec(aty, y)
		lhs, rhs := Dot(ax, y), Dot(x, aty)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
