package dense

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/vec"
)

func randMatrix(r *rng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*r.Float64() - 1
	}
	return m
}

func randSymmetric(r *rng.Source, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 2*r.Float64() - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func randVector(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

func TestMatVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	x := []float64{1, -1}
	dst := make([]float64, 3)
	a.MatVec(dst, x)
	want := []float64{-1, -1, -1}
	if vec.DistInf(dst, want) != 0 {
		t.Errorf("MatVec = %v, want %v", dst, want)
	}
}

func TestMatVecT(t *testing.T) {
	r := rng.New(1)
	a := randMatrix(r, 7, 5)
	x := randVector(r, 7)
	got := make([]float64, 5)
	a.matVecT(got, x)
	want := make([]float64, 5)
	a.Transpose().MatVec(want, x)
	if vec.DistInf(got, want) > 1e-14 {
		t.Errorf("matVecT disagrees with explicit transpose")
	}
}

func TestMulAssociatesWithMatVec(t *testing.T) {
	// (A·B)·x == A·(B·x)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + int(r.Uint64n(10))
		a, b := randMatrix(r, n, n), randMatrix(r, n, n)
		x := randVector(r, n)
		ab := a.Mul(b)
		got := make([]float64, n)
		ab.MatVec(got, x)
		tmp, want := make([]float64, n), make([]float64, n)
		b.MatVec(tmp, x)
		a.MatVec(want, tmp)
		return vec.DistInf(got, want) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	x := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	id.MatVec(dst, x)
	if vec.DistInf(dst, x) != 0 {
		t.Error("I·x != x")
	}
}

func TestScaleRowsColumns(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	ac := a.Clone()
	ac.ScaleColumns([]float64{2, 3})
	want := FromRows([][]float64{{2, 6}, {6, 12}})
	if vec.DistInf(ac.Data, want.Data) != 0 {
		t.Errorf("ScaleColumns = %v", ac.Data)
	}
	ar := a.Clone()
	ar.ScaleRows([]float64{2, 3})
	want = FromRows([][]float64{{2, 4}, {9, 12}})
	if vec.DistInf(ar.Data, want.Data) != 0 {
		t.Errorf("ScaleRows = %v", ar.Data)
	}
}

func TestKroneckerShapeAndValues(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{0, 5}, {6, 7}})
	k := a.Kronecker(b)
	if k.Rows != 4 || k.Cols != 4 {
		t.Fatalf("Kronecker shape %d×%d", k.Rows, k.Cols)
	}
	// (A⊗B)[i*rb+r][j*cb+c] = A[i][j]*B[r][c]
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for r := 0; r < 2; r++ {
				for c := 0; c < 2; c++ {
					want := a.At(i, j) * b.At(r, c)
					if got := k.At(i*2+r, j*2+c); got != want {
						t.Fatalf("K[%d][%d] = %g, want %g", i*2+r, j*2+c, got, want)
					}
				}
			}
		}
	}
}

func TestKroneckerMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = AC ⊗ BD — the identity Section 5.2 relies on.
	r := rng.New(7)
	a, b := randMatrix(r, 2, 2), randMatrix(r, 3, 3)
	c, d := randMatrix(r, 2, 2), randMatrix(r, 3, 3)
	lhs := a.Kronecker(b).Mul(c.Kronecker(d))
	rhs := a.Mul(c).Kronecker(b.Mul(d))
	if vec.DistInf(lhs.Data, rhs.Data) > 1e-12 {
		t.Error("mixed product identity violated")
	}
}

func TestColumnSums(t *testing.T) {
	a := FromRows([][]float64{{0.3, 0.9}, {0.7, 0.1}})
	s := a.ColumnSums()
	if math.Abs(s[0]-1) > 1e-15 || math.Abs(s[1]-1) > 1e-15 {
		t.Errorf("ColumnSums = %v", s)
	}
}

func TestDominantSimpleMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1; dominant vector (1,1)/√2.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	lambda, x, iters, err := Dominant(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-3) > 1e-10 {
		t.Errorf("λ = %g, want 3 (in %d iters)", lambda, iters)
	}
	w := 1 / math.Sqrt2
	if vec.DistInf(x, []float64{w, w}) > 1e-6 {
		t.Errorf("x = %v", x)
	}
}

func TestDominantStochasticMatrix(t *testing.T) {
	// A column-stochastic positive matrix has Perron value exactly 1... for
	// the transpose; use a symmetric doubly-stochastic one so λ = 1 both ways.
	a := FromRows([][]float64{{0.9, 0.1}, {0.1, 0.9}})
	lambda, x, _, err := Dominant(a, &DominantOptions{Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-1) > 1e-12 {
		t.Errorf("λ = %g, want 1", lambda)
	}
	if math.Abs(x[0]-x[1]) > 1e-6 {
		t.Errorf("Perron vector of bistochastic matrix must be uniform, got %v", x)
	}
}

func TestDominantNoConvergence(t *testing.T) {
	// ±1 eigenvalues with equal modulus: power method cannot converge.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	start := []float64{1, 0.3}
	_, _, _, err := Dominant(a, &DominantOptions{MaxIter: 50, Start: start})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, -1}})
	vals, vecs, err := JacobiEigen(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-14 || math.Abs(vals[1]+1) > 1e-14 {
		t.Errorf("vals = %v", vals)
	}
	if vecs == nil {
		t.Fatal("nil eigenvector matrix")
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + int(r.Uint64n(12))
		a := randSymmetric(r, n)
		vals, v, err := JacobiEigen(a, 1e-14)
		if err != nil {
			return false
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				return false
			}
		}
		// A·V = V·diag(vals), column by column.
		col, av := make([]float64, n), make([]float64, n)
		for c := 0; c < n; c++ {
			for r2 := 0; r2 < n; r2++ {
				col[r2] = v.At(r2, c)
			}
			a.MatVec(av, col)
			for r2 := 0; r2 < n; r2++ {
				if math.Abs(av[r2]-vals[c]*col[r2]) > 1e-9 {
					return false
				}
			}
		}
		// Orthonormality of V.
		vtv := v.Transpose().Mul(v)
		id := Identity(n)
		return vec.DistInf(vtv.Data, id.Data) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJacobiEigenRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {0, 1}})
	if _, _, err := JacobiEigen(a, 0); err == nil {
		t.Error("JacobiEigen must reject asymmetric input")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows must panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatVecShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("MatVec with wrong shapes must panic")
		}
	}()
	a.MatVec(make([]float64, 2), make([]float64, 2))
}
