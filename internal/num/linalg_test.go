package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matrix builds a dense matrix from its rows.
func matrix(rows ...[]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// solve runs the Newton loop's linear-solve sequence on a: NewLU, Refactor,
// SolveInto.
func solve(a *Matrix, b []float64) ([]float64, error) {
	f := NewLU(a.Rows)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.SolveInto(x, b)
	return x, nil
}

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
	x, err := solve(matrix([]float64{2, 1}, []float64{1, 3}), []float64{5, 10})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("got x=%v, want [1 3]", x)
	}
}

func TestSolveLinearIdentity(t *testing.T) {
	n := 5
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
		b[i] = float64(i) - 2.5
	}
	x, err := solve(a, b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Fatalf("identity solve mismatch at %d: %g vs %g", i, x[i], b[i])
		}
	}
}

func TestFactorSingular(t *testing.T) {
	if _, err := solve(matrix([]float64{1, 2}, []float64{2, 4}), []float64{0, 0}); err != ErrSingular {
		t.Fatalf("rank-1 matrix: got %v, want ErrSingular", err)
	}
	if _, err := solve(NewMatrix(3, 3), make([]float64, 3)); err != ErrSingular {
		t.Fatalf("zero matrix: got %v, want ErrSingular", err)
	}
	// The pivot tolerance is relative to the matrix scale (1e-300·max|a|):
	// a pivot just below it is singular, one just above it is not.
	if _, err := solve(matrix([]float64{1, 0}, []float64{0, 1e-301}), []float64{1, 1}); err != ErrSingular {
		t.Fatalf("near-singular pivot below tolerance: got %v, want ErrSingular", err)
	}
	x, err := solve(matrix([]float64{1, 0}, []float64{0, 1e-299}), []float64{1, 1e-299})
	if err != nil {
		t.Fatalf("pivot above tolerance rejected: %v", err)
	}
	if x[0] != 1 || x[1] != 1 {
		t.Fatalf("got %v, want [1 1]", x)
	}
}

func TestFactorNonSquare(t *testing.T) {
	if err := NewLU(2).Refactor(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	if err := NewLU(3).Refactor(NewMatrix(2, 2)); err == nil {
		t.Fatal("expected error for a matrix of the wrong size")
	}
}

func TestPivotingHandlesZeroDiagonal(t *testing.T) {
	// Leading zero forces a row swap.
	x, err := solve(matrix([]float64{0, 1}, []float64{1, 0}), []float64{2, 3})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("got %v, want [3 2]", x)
	}
}

// TestSolveRandomResidual is a property test: for random well-conditioned
// systems, A·x must reproduce b to near machine precision — also when one LU
// is refactored for a second system, as the Newton loop does every
// iteration.
func TestSolveRandomResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		lu := NewLU(n)
		x := make([]float64, n)
		for round := 0; round < 2; round++ {
			a := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Add(i, j, rng.NormFloat64())
				}
				// Diagonal dominance keeps the system well conditioned.
				a.Add(i, i, float64(n)*2)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			if err := lu.Refactor(a); err != nil {
				return false
			}
			lu.SolveInto(x, b)
			r := make([]float64, n)
			for i := range r {
				for j := 0; j < n; j++ {
					r[i] += a.Data[i*n+j] * x[j]
				}
				r[i] -= b[i]
			}
			if NormInf(r) >= 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveIntoDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewLU(2).SolveInto(make([]float64, 2), []float64{1})
}

func TestNorms(t *testing.T) {
	if v := NormInf([]float64{3, -4}); v != 4 {
		t.Fatalf("NormInf = %g", v)
	}
	if NormInf(nil) != 0 {
		t.Fatal("norm of empty vector should be 0")
	}
}
