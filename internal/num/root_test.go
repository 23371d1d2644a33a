package num

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectSimple(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Bisect(f, 0, 2, 1e-10)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-9 {
		t.Fatalf("root = %.12f, want sqrt(2)", x)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Bisect(f, 0, 1, 1e-10); err != nil || x != 0 {
		t.Fatalf("got (%g, %v), want (0, nil)", x, err)
	}
	if x, err := Bisect(f, -1, 0, 1e-10); err != nil || x != 0 {
		t.Fatalf("got (%g, %v), want (0, nil)", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-10); err != ErrNoBracket {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentPolynomial(t *testing.T) {
	f := func(x float64) float64 { return (x + 3) * (x - 1) * (x - 1) * (x - 1) }
	x, err := Brent(f, -4, 0, 1e-12)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	if math.Abs(x+3) > 1e-9 {
		t.Fatalf("root = %g, want -3", x)
	}
}

func TestBrentTranscendental(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) - x }
	x, err := Brent(f, 0, 1, 1e-12)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	if math.Abs(f(x)) > 1e-10 {
		t.Fatalf("f(root) = %g", f(x))
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := Brent(f, -1, 1, 1e-10); err != ErrNoBracket {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}

// TestBrentMatchesBisect is a property test: both root finders must agree on
// random monotone cubics that bracket a root.
func TestBrentMatchesBisect(t *testing.T) {
	prop := func(shift float64) bool {
		c := math.Mod(math.Abs(shift), 5.0) // root location in [0, 5)
		f := func(x float64) float64 { return (x - c) * (1 + (x-c)*(x-c)) }
		xb, err1 := Bisect(f, -6, 6, 1e-11)
		xr, err2 := Brent(f, -6, 6, 1e-11)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(xb-c) < 1e-9 && math.Abs(xr-c) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
