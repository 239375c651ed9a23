package sparse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func cAlmostEq(a, b complex128, tol float64) bool { return cmplx.Abs(a-b) <= tol }

func randComplex(r *rand.Rand) complex128 {
	return complex(r.NormFloat64(), r.NormFloat64())
}

func randCMatrix(r *rand.Rand, rows, cols, nnz int) (*CMatrix, [][]complex128) {
	b := NewCBuilder(rows, cols)
	dense := make([][]complex128, rows)
	for i := range dense {
		dense[i] = make([]complex128, cols)
	}
	for k := 0; k < nnz; k++ {
		i, j := r.Intn(rows), r.Intn(cols)
		v := randComplex(r)
		b.Add(i, j, v)
		dense[i][j] += v
	}
	return b.Build(), dense
}

func TestCBuilderDuplicatesSum(t *testing.T) {
	b := NewCBuilder(2, 2)
	b.Add(0, 0, 1+2i)
	b.Add(0, 0, 3-1i)
	m := b.Build()
	if got := m.At(0, 0); got != 4+1i {
		t.Errorf("At(0,0) = %v, want (4+1i)", got)
	}
	if m.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1", m.NNZ())
	}
}

func TestCMatrixMulVecAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 1+r.Intn(15), 1+r.Intn(15)
		m, dense := randCMatrix(r, rows, cols, r.Intn(50))
		x := make([]complex128, cols)
		for j := range x {
			x[j] = randComplex(r)
		}
		y := make([]complex128, rows)
		m.MulVec(x, y)
		for i := range y {
			var want complex128
			for j := range x {
				want += dense[i][j] * x[j]
			}
			if !cAlmostEq(y[i], want, 1e-9) {
				t.Fatalf("trial %d: y[%d] = %v, want %v", trial, i, y[i], want)
			}
		}
	}
}

func TestCMatrixVecMulAgainstDense(t *testing.T) {
	// The row-vector product x·M, as VecMulSkipRows with no row skipped.
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 1+r.Intn(15), 1+r.Intn(15)
		m, dense := randCMatrix(r, rows, cols, r.Intn(50))
		x := make([]complex128, rows)
		for i := range x {
			x[i] = randComplex(r)
		}
		y := make([]complex128, cols)
		m.VecMulSkipRows(x, y, make([]bool, rows))
		for j := range y {
			var want complex128
			for i := range x {
				want += x[i] * dense[i][j]
			}
			if !cAlmostEq(y[j], want, 1e-9) {
				t.Fatalf("trial %d: y[%d] = %v, want %v", trial, j, y[j], want)
			}
		}
	}
}

func TestVecMulSkipRowsMatchesZeroedMatrix(t *testing.T) {
	// x·U′ computed by VecMulSkipRows must equal x·U with the skipped
	// rows of the dense copy zeroed.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		m, dense := randCMatrix(r, n, n, 3*n)
		skip := make([]bool, n)
		for i := range skip {
			skip[i] = r.Intn(3) == 0
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = randComplex(r)
		}
		y := make([]complex128, n)
		m.VecMulSkipRows(x, y, skip)
		for j := range y {
			var want complex128
			for i := range x {
				if !skip[i] {
					want += x[i] * dense[i][j]
				}
			}
			if !cAlmostEq(y[j], want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSweepDescSkipRowsMatchesDenseGaussSeidel checks the in-place
// sweep against a dense descending Gauss–Seidel step: skipped rows take
// b_i alone, every other row reads the entries already updated above it,
// and the returned value is the largest squared change.
func TestSweepDescSkipRowsMatchesDenseGaussSeidel(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(15)
		m, dense := randCMatrix(r, n, n, r.Intn(50))
		z, b, skip := make([]complex128, n), make([]complex128, n), make([]bool, n)
		for i := range z {
			z[i], b[i], skip[i] = randComplex(r), randComplex(r), r.Intn(4) == 0
		}
		want := slices.Clone(z)
		var wantMax float64
		for i := n - 1; i >= 0; i-- {
			next := b[i]
			if !skip[i] {
				for k := range want {
					next += dense[i][k] * want[k]
				}
			}
			d := next - want[i]
			wantMax = max(wantMax, real(d)*real(d)+imag(d)*imag(d))
			want[i] = next
		}
		got := m.SweepDescSkipRows(z, b, skip)
		if !almostEq(got, wantMax, 1e-9*(1+wantMax)) {
			t.Fatalf("trial %d: largest squared change %v, want %v", trial, got, wantMax)
		}
		for i := range z {
			if !cAlmostEq(z[i], want[i], 1e-9) {
				t.Fatalf("trial %d row %d: %v, want %v", trial, i, z[i], want[i])
			}
		}
	}
	m, _ := randCMatrix(r, 3, 3, 9)
	z := []complex128{1, complex(0, 0), 2}
	if got := m.SweepDescSkipRows(z, []complex128{0, complex(math.NaN(), 0), 0}, make([]bool, 3)); got == got {
		t.Fatalf("NaN change reported as %v", got)
	}
}

func TestPatternScatterAndRefresh(t *testing.T) {
	is := []int{0, 0, 1, 2, 0}
	js := []int{1, 2, 0, 2, 1} // (0,1) appears twice -> same slot
	p, idx := NewPattern(3, 3, is, js)
	if p.NNZ() != 4 {
		t.Fatalf("pattern NNZ = %d, want 4", p.NNZ())
	}
	if idx[0] != idx[4] {
		t.Errorf("duplicate coordinate mapped to slots %d and %d, want equal", idx[0], idx[4])
	}
	m := p.NewCMatrix()
	vals := m.Values()
	for k, slot := range idx {
		vals[slot] += complex(float64(k+1), 0)
	}
	// (0,1) accumulates entries k=0 (1) and k=4 (5) = 6.
	if got := m.At(0, 1); got != 6 {
		t.Errorf("At(0,1) = %v, want 6", got)
	}
	// Refresh in place: zero and rewrite.
	for i := range vals {
		vals[i] = 0
	}
	vals[idx[2]] = 9i
	if got := m.At(1, 0); got != 9i {
		t.Errorf("after refresh At(1,0) = %v, want 9i", got)
	}
	if got := m.At(0, 2); got != 0 {
		t.Errorf("after refresh At(0,2) = %v, want 0", got)
	}
}

func TestSolveDenseKnownSystem(t *testing.T) {
	// (2x + y = 5+i; x - y = 1-i) => x = 2, y = 1+i
	a := NewDense(2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := SolveDense(a, []complex128{5 + 1i, 1 - 1i})
	if err != nil {
		t.Fatal(err)
	}
	if !cAlmostEq(x[0], 2, 1e-12) || !cAlmostEq(x[1], 1+1i, 1e-12) {
		t.Errorf("solution = %v, want [2, 1+1i]", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveDense(a, []complex128{1, 2}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDenseRandomResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := NewDense(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, randComplex(r))
			}
			a.Add(i, i, complex(float64(n), 0)) // diagonally dominant-ish
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = randComplex(r)
		}
		// Copy A and b, solve, then check residual with the originals.
		acopy := NewDense(n)
		copy(acopy.Val, a.Val)
		bcopy := append([]complex128(nil), b...)
		x, err := SolveDense(acopy, bcopy)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var sum complex128
			for j := 0; j < n; j++ {
				sum += a.At(i, j) * x[j]
			}
			if !cAlmostEq(sum, b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDenseFromCSR(t *testing.T) {
	b := NewCBuilder(2, 2)
	b.Add(0, 1, 3i)
	b.Add(1, 0, 2)
	d := DenseFromCSR(b.Build())
	if d.At(0, 1) != 3i || d.At(1, 0) != 2 || d.At(0, 0) != 0 {
		t.Errorf("DenseFromCSR mismatch: %+v", d.Val)
	}
}

func TestNewPatternCSR(t *testing.T) {
	p := NewPatternCSR(2, 3, []int{0, 2, 3}, []int{0, 2, 1})
	q, _ := NewPattern(2, 3, []int{0, 1, 0, 0}, []int{2, 1, 0, 2})
	for i := 0; i < 2; i++ {
		var got, want []int
		p.Row(i, func(j int) { got = append(got, j) })
		q.Row(i, func(j int) { want = append(want, j) })
		if !slices.Equal(got, want) {
			t.Errorf("row %d = %v, NewPattern gives %v", i, got, want)
		}
	}
	for name, bad := range map[string][2][]int{
		"descending": {{0, 2}, {2, 1}},
		"duplicate":  {{0, 2}, {1, 1}},
		"outside":    {{0, 1}, {3}},
		"short":      {{0, 1}, {0, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s structure accepted", name)
				}
			}()
			NewPatternCSR(1, 3, bad[0], bad[1])
		}()
	}
}
