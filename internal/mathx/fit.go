package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a least-squares system has no unique
// solution (e.g. fewer distinct x values than coefficients).
var ErrSingular = errors.New("mathx: singular system in least-squares fit")

// Poly is a polynomial with coefficients in ascending-power order:
// Coef[0] + Coef[1]*x + Coef[2]*x^2 + ...
type Poly struct {
	Coef []float64
}

// Eval returns the polynomial evaluated at x (Horner's rule).
func (p Poly) Eval(x float64) float64 {
	var y float64
	for i := len(p.Coef) - 1; i >= 0; i-- {
		y = float64(y*x) + p.Coef[i]
	}
	return y
}

// Degree returns the nominal degree (len(Coef)-1); -1 for an empty Poly.
func (p Poly) Degree() int { return len(p.Coef) - 1 }

// String renders the polynomial as a human-readable expression.
func (p Poly) String() string {
	if len(p.Coef) == 0 {
		return "0"
	}
	s := ""
	for i, c := range p.Coef {
		if i == 0 {
			s = fmt.Sprintf("%.6g", c)
			continue
		}
		s += fmt.Sprintf(" %+.6g*x^%d", c, i)
	}
	return s
}

// PolyFit fits a polynomial of the given degree to the points (x[i], y[i])
// by ordinary least squares, solving the normal equations with partially
// pivoted Gaussian elimination. x and y must be the same length and must
// contain at least degree+1 points.
//
// Inputs are centred and scaled internally for conditioning; the returned
// coefficients are in the original coordinates.
func PolyFit(x, y []float64, degree int) (Poly, error) {
	if degree < 0 {
		return Poly{}, fmt.Errorf("mathx: negative degree %d", degree)
	}
	if len(x) != len(y) {
		return Poly{}, fmt.Errorf("mathx: len(x)=%d len(y)=%d", len(x), len(y))
	}
	n := degree + 1
	if len(x) < n {
		return Poly{}, fmt.Errorf("mathx: %d points cannot determine degree-%d fit: %w",
			len(x), degree, ErrSingular)
	}

	// Centre/scale x for conditioning: t = (x - mu) / s.
	mu := Mean(x)
	s := StdDev(x)
	if s == 0 || math.IsNaN(s) {
		if degree == 0 {
			return Poly{Coef: []float64{Mean(y)}}, nil
		}
		return Poly{}, ErrSingular
	}

	// Build normal equations A c = b where A[i][j] = sum t^(i+j).
	pow := make([]float64, 2*n-1)
	bvec := make([]float64, n)
	tp := make([]float64, n)
	for k := range x {
		t := (x[k] - mu) / s
		tk := 1.0
		for i := 0; i < 2*n-1; i++ {
			pow[i] += tk
			if i < n {
				tp[i] = tk
			}
			tk *= t
		}
		for i := 0; i < n; i++ {
			bvec[i] += float64(tp[i] * y[k])
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = pow[i+j]
		}
	}
	c, err := SolveLinear(a, bvec)
	if err != nil {
		return Poly{}, err
	}

	// Expand back to original coordinates:
	// p(x) = sum_i c[i] * ((x-mu)/s)^i.
	out := make([]float64, n)
	// term starts as c[i] * binomial expansion of ((x-mu)/s)^i.
	for i := 0; i < n; i++ {
		// ((x-mu)/s)^i = s^-i * sum_j C(i,j) x^j (-mu)^(i-j)
		si := math.Pow(s, float64(-i))
		comb := 1.0 // C(i, j) built iteratively
		for j := 0; j <= i; j++ {
			if j > 0 {
				comb = comb * float64(i-j+1) / float64(j)
			} else {
				comb = 1.0
			}
			out[j] += float64(c[i] * si * comb * math.Pow(-mu, float64(i-j)))
		}
	}
	return Poly{Coef: out}, nil
}

// SolveLinear solves the square system a*x = b by Gaussian elimination
// with partial pivoting. a and b are modified in place.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("mathx: bad system dimensions")
	}
	for col := 0; col < n; col++ {
		// Pivot selection.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for cc := col; cc < n; cc++ {
				a[r][cc] -= float64(f * a[col][cc])
			}
			b[r] -= float64(f * b[col])
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for cc := r + 1; cc < n; cc++ {
			sum -= float64(a[r][cc] * x[cc])
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// LinearFit fits y = slope*x + intercept by least squares and also
// returns the Pearson correlation coefficient r.
func LinearFit(x, y []float64) (slope, intercept, r float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0, fmt.Errorf("mathx: LinearFit needs >=2 paired points, got %d/%d",
			len(x), len(y))
	}
	mx, my := Mean(x), Mean(y)
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
		sxy += float64(dx * dy)
	}
	if sxx == 0 {
		return 0, 0, 0, ErrSingular
	}
	slope = sxy / sxx
	intercept = my - float64(slope*mx)
	if syy == 0 {
		// y constant: perfectly predicted by the constant model.
		return slope, intercept, 1, nil
	}
	r = sxy / math.Sqrt(sxx*syy)
	return slope, intercept, r, nil
}
