package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rfid-lion/lion/internal/stats"
)

// reweightFloor is the weight floor the fuzz harness counts against; the
// solver's own floor (core.WeightFloor) has the same value.
const reweightFloor = 1e-6

// Fuzz input shapes, selected by bits of the mode byte.
const (
	modeZeroRows  = 1 << iota // every third row of A is all zeros
	modeExactFit              // b = A·x + c: constant residuals, σ = 0
	modeNaN                   // one NaN in b, so every weight is NaN
	modeNotSPD                // the last column is zero: AᵀWA is singular
	modeOutlier               // one huge residual among many rows: weights underflow to 0
	modeZeroCoefs             // a sparse A: about half its entries are zero
)

// reweightInput builds one fuzz case: A (rows×cols), b, the incoming
// iterate x, and a weight vector pre-filled with a sentinel.
func reweightInput(seed int64, rows, cols int, mode uint8) (*Dense, []float64, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := randomTallMatrix(rng, rows, cols)
	x := make([]float64, cols)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	if mode&modeZeroCoefs != 0 {
		for i := range a.data {
			if rng.Intn(2) == 0 {
				a.data[i] = 0
			}
		}
	}
	if mode&modeZeroRows != 0 {
		for i := 0; i < rows; i += 3 {
			for j := 0; j < cols; j++ {
				a.Set(i, j, 0)
			}
		}
	}
	if mode&modeNotSPD != 0 {
		for i := 0; i < rows; i++ {
			a.Set(i, cols-1, 0)
		}
	}
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if mode&modeExactFit != 0 {
		// x = 0 makes every residual exactly −c.
		for j := range x {
			x[j] = 0
		}
		for i := range b {
			b[i] = 0.75
		}
	}
	if mode&modeOutlier != 0 {
		b[rng.Intn(rows)] = 1e6
	}
	if mode&modeNaN != 0 {
		b[rng.Intn(rows)] = math.NaN()
	}
	w := make([]float64, rows)
	for i := range w {
		w[i] = -7 // sentinel: an exact fit must leave it in place
	}
	return a, b, x, w
}

// sameBits reports whether two vectors are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzReweightEquivalence pins Workspace.Reweight to the unfused IRWLS step
// it replaces — Residuals, Norm2, stats.MeanStd, the math.Exp weights of
// Eq. 15 and WeightedLeastSquares — with math.Float64bits equality on the
// residuals, their norm, mean, standard deviation, weights, floor count and
// iterate, and the same error, across 1–4 columns, zero rows and
// coefficients, underflowing zero weights, σ = 0, NaN weights and the
// non-SPD fallback — on the generic pass 2 and, where it was chosen, on
// reweightKernel2.
func FuzzReweightEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(2), uint8(0))
	f.Add(int64(2), uint16(7), uint8(1), uint8(0))
	f.Add(int64(3), uint16(250), uint8(3), uint8(modeZeroRows))
	f.Add(int64(4), uint16(30), uint8(4), uint8(modeExactFit))
	f.Add(int64(5), uint16(30), uint8(2), uint8(modeNaN))
	f.Add(int64(6), uint16(25), uint8(3), uint8(modeNotSPD))
	f.Add(int64(7), uint16(2047), uint8(2), uint8(modeOutlier))
	f.Add(int64(8), uint16(60), uint8(4), uint8(modeZeroCoefs|modeZeroRows))
	f.Add(int64(9), uint16(3), uint8(4), uint8(modeNotSPD|modeZeroRows))
	f.Fuzz(func(t *testing.T, seed int64, nRows uint16, nCols, mode uint8) {
		reweightImpls(t, func(t *testing.T) { checkReweight(t, seed, nRows, nCols, mode) })
	})
}

// reweightImpls runs f once per pass-2 implementation of Reweight this
// host can run: the generic pass on the math.Exp loop, and reweightKernel2
// where it was chosen at init.
func reweightImpls(t *testing.T, f func(t *testing.T)) {
	savedExp, savedRw := useExpKernel, useReweightKernel
	defer func() { useExpKernel, useReweightKernel = savedExp, savedRw }()
	useExpKernel, useReweightKernel = false, false
	t.Run("generic", f)
	if savedRw {
		useExpKernel, useReweightKernel = true, true
		t.Run("kernel", f)
	}
}

// checkReweight is one FuzzReweightEquivalence case.
func checkReweight(t *testing.T, seed int64, nRows uint16, nCols, mode uint8) {
	rows := 1 + int(nRows)%2048
	cols := 1 + int(nCols)%4
	a, b, x, w := reweightInput(seed, rows, cols, mode)
	wantW := append([]float64(nil), w...)

	// The unfused reference, on the allocating package-level kernels.
	wantRes := residuals(a, x, b)
	mean, std := stats.MeanStd(wantRes)
	hits := 0
	var wantX []float64
	var wantErr error
	if std != 0 {
		for i, r := range wantRes {
			d := (r - mean) / std
			wantW[i] = math.Exp(-d * d / 2)
			if wantW[i] < reweightFloor {
				hits++
			}
		}
		wantX, wantErr = WeightedLeastSquares(a, b, wantW)
	}

	// A warm workspace must not carry state between steps: run an
	// unrelated step first.
	var ws Workspace
	wa, wb, wx, ww := reweightInput(seed+1, 5, 2, 0)
	if _, err := ws.Reweight(wa, wb, wx, ww, reweightFloor); err != nil {
		t.Fatal(err)
	}
	got, err := ws.Reweight(a, b, x, w, reweightFloor)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("error %v, want %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !sameBits(got.Res, wantRes) {
		t.Fatalf("residuals differ:\n got %v\nwant %v", got.Res, wantRes)
	}
	if !sameBits([]float64{got.Mean, got.Std}, []float64{mean, std}) {
		t.Fatalf("mean/std = %v/%v, want %v/%v", got.Mean, got.Std, mean, std)
	}
	if norm := Norm2(wantRes); !sameBits([]float64{got.ResNorm}, []float64{norm}) {
		t.Fatalf("residual norm %v, want %v", got.ResNorm, norm)
	}
	if !sameBits(w, wantW) {
		t.Fatalf("weights differ:\n got %v\nwant %v", w, wantW)
	}
	if got.FloorHits != hits {
		t.Fatalf("floor hits %d, want %d", got.FloorHits, hits)
	}
	if std == 0 {
		if got.X != nil {
			t.Fatalf("exact fit returned an iterate %v", got.X)
		}
		return
	}
	if !sameBits(got.X, wantX) {
		t.Fatalf("iterate %v, want %v", got.X, wantX)
	}
}

// TestReweightCoversEdgeCases checks that the fuzz seeds really reach the
// edge cases they are named for, so the seed corpus run by plain `go test`
// exercises each one.
func TestReweightCoversEdgeCases(t *testing.T) {
	var ws Workspace
	step := func(seed int64, rows, cols int, mode uint8) (Reweight, []float64, error) {
		a, b, x, w := reweightInput(seed, rows, cols, mode)
		rw, err := ws.Reweight(a, b, x, w, reweightFloor)
		return rw, w, err
	}
	if rw, _, err := step(4, 31, 4, modeExactFit); err != nil || rw.Std != 0 || rw.X != nil {
		t.Errorf("exact fit: std %v x %v err %v, want σ = 0 and no iterate", rw.Std, rw.X, err)
	}
	if _, _, err := step(5, 31, 2, modeNaN); err == nil {
		t.Error("NaN residual: no error")
	}
	zeros := 0
	if _, w, err := step(7, 2048, 2, modeOutlier); err != nil {
		t.Errorf("outlier: %v", err)
	} else {
		for _, wi := range w {
			if wi == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Error("outlier: no weight underflowed to zero")
	}
	// A zero column leaves a zero pivot, so the Cholesky factorization
	// fails for certain and the step must take the WeightedLeastSquares
	// fallback, whose QR solve reports the rank deficiency.
	if _, _, err := step(6, 26, 3, modeNotSPD); !errors.Is(err, ErrSingular) {
		t.Errorf("zero column: err %v, want ErrSingular from the QR fallback", err)
	}
}

// pass2Case is one input of Reweight's pass 2 for a 2-column system: the
// residuals with the mean and standard deviation they are standardised by,
// and the rows a (2 per residual) with their right-hand sides b.
type pass2Case struct {
	res, a, b []float64
	mean, std float64
}

// pass2Out is what pass 2 produces: the weights, the floor hits, the sums
// [g00, g10, g11, r0, r1] and the error.
type pass2Out struct {
	w    []float64
	hits int
	sums [5]float64
	err  error
}

// runPass2 runs pass 2 over c on reweightKernel2 (through reweightPass2),
// or as the generic pass on the math.Exp loop.
func runPass2(c pass2Case, kernel bool) pass2Out {
	var o pass2Out
	o.w = make([]float64, len(c.res))
	gram, rhs := make([]float64, 4), make([]float64, 2)
	if kernel {
		o.hits, o.err = reweightPass2(gram, rhs, c.a, c.b, c.res, o.w, c.mean, c.std, reweightFloor)
	} else {
		saved := useExpKernel
		useExpKernel = false
		weightsInto(o.w, c.res, c.mean, c.std)
		useExpKernel = saved
		o.hits, o.err = reweightSums(gram, rhs, c.a, c.b, o.w, 0, len(c.res), reweightFloor)
	}
	o.sums = [5]float64{gram[0], gram[2], gram[3], rhs[0], rhs[1]}
	return o
}

// checkPass2 fails unless reweightKernel2 reproduces the generic pass 2
// on c bit for bit: the same error, and without one the same weights,
// floor hits and sums.
func checkPass2(t *testing.T, name string, c pass2Case) {
	t.Helper()
	want, got := runPass2(c, false), runPass2(c, true)
	if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
		t.Fatalf("%s: error %v, want %v", name, got.err, want.err)
	}
	if want.err != nil {
		return // the weights after the failing row are unspecified
	}
	if !sameBits(got.w, want.w) {
		t.Fatalf("%s: weights\n got %v\nwant %v", name, got.w, want.w)
	}
	if got.hits != want.hits {
		t.Fatalf("%s: floor hits %d, want %d", name, got.hits, want.hits)
	}
	if !sameBits(got.sums[:], want.sums[:]) {
		t.Fatalf("%s: sums %v, want %v", name, got.sums, want.sums)
	}
}

// pass2Base builds a clean case of the given size: every weight in the
// exp kernel's range, every coefficient and right-hand side non-zero.
func pass2Base(rng *rand.Rand, rows int, mean, std float64) pass2Case {
	c := pass2Case{
		res:  make([]float64, rows),
		a:    make([]float64, 2*rows),
		b:    make([]float64, rows),
		mean: mean,
		std:  std,
	}
	for i := range c.res {
		c.res[i] = mean + std*rng.NormFloat64()
		c.a[2*i] = 0.5 + rng.Float64()
		c.a[2*i+1] = -0.5 - rng.Float64()
		c.b[i] = rng.NormFloat64() + 3
	}
	return c
}

// pass2Unclean are the rows that make reweightKernel2 leave a block to the
// generic pass, each applied to row p of c. The weight is exp(−d²/2) with
// d = (res − mean)/std, so a residual 40σ out gives a weight of exactly 0,
// and one 1.5σ out a weight near 0.32, which makes w·b underflow to 0 for
// the smallest subnormal b.
var pass2Unclean = []struct {
	name  string
	apply func(c *pass2Case, p int)
}{
	{"w=0", func(c *pass2Case, p int) { c.res[p] = c.mean + 40*c.std }},
	{"w=NaN", func(c *pass2Case, p int) { c.res[p] = math.NaN() }},
	{"a0=0", func(c *pass2Case, p int) { c.a[2*p] = 0 }},
	{"a1=0", func(c *pass2Case, p int) { c.a[2*p+1] = 0 }},
	{"a0=-0", func(c *pass2Case, p int) { c.a[2*p] = math.Copysign(0, -1) }},
	{"b=0", func(c *pass2Case, p int) { c.b[p] = 0 }},
	{"w·b underflows", func(c *pass2Case, p int) {
		c.res[p] = c.mean + 1.5*c.std
		c.b[p] = math.SmallestNonzeroFloat64
	}},
	{"a0=+Inf", func(c *pass2Case, p int) { c.a[2*p] = math.Inf(1) }},
	{"a1=-Inf", func(c *pass2Case, p int) { c.a[2*p+1] = math.Inf(-1) }},
	{"b=+Inf", func(c *pass2Case, p int) { c.b[p] = math.Inf(1) }},
	{"a1=NaN", func(c *pass2Case, p int) { c.a[2*p+1] = math.NaN() }},
	// A skipped term that would not be a no-op: the product of the zero
	// with an infinite coefficient is NaN.
	{"a1=0, a0=+Inf", func(c *pass2Case, p int) { c.a[2*p], c.a[2*p+1] = math.Inf(1), 0 }},
	{"b=0, a0=+Inf", func(c *pass2Case, p int) { c.a[2*p], c.b[p] = math.Inf(1), 0 }},
	{"b=NaN", func(c *pass2Case, p int) { c.b[p] = math.NaN() }},
	{"floor hit", func(c *pass2Case, p int) { c.res[p] = c.mean - 5.5*c.std }},
	{"r−mean=+0", func(c *pass2Case, p int) { c.res[p] = c.mean }},
}

// TestReweightKernelMatchesGenericPass pins reweightKernel2 to the generic
// pass 2 on every row count from 0 to 13, with each unclean row of
// pass2Unclean at every position of every block (floor hits among them,
// at the block edges too), and on the standardisation edge cases: a tiny
// and a huge σ, residuals equal to the mean with either sign of zero, and
// weights that underflow to 0 for a whole block.
func TestReweightKernelMatchesGenericPass(t *testing.T) {
	if !useReweightKernel {
		t.Skip("reweightKernel2 was not chosen on this host")
	}
	rng := rand.New(rand.NewSource(17))
	for rows := 0; rows <= 13; rows++ {
		checkPass2(t, fmt.Sprintf("%d clean rows", rows), pass2Base(rng, rows, 0.1, 1.3))
		for p := 0; p < rows; p++ {
			for _, u := range pass2Unclean {
				c := pass2Base(rng, rows, 0.1, 1.3)
				u.apply(&c, p)
				checkPass2(t, fmt.Sprintf("%d rows, %s at %d", rows, u.name, p), c)
			}
		}
	}
	// Floor hits on both sides of every block edge in one case.
	c := pass2Base(rng, 13, -2, 0.7)
	for _, p := range []int{0, 3, 4, 7, 8, 11, 12} {
		c.res[p] = c.mean + 5.5*c.std
	}
	if o := runPass2(c, true); o.hits != 7 {
		t.Errorf("floor hits at block edges: %d, want 7", o.hits)
	}
	checkPass2(t, "floor hits at block edges", c)

	for _, sc := range []struct {
		name      string
		mean, std float64
	}{
		{"tiny σ", 0, 1e-300},
		{"subnormal σ", 0, 1e-310},
		{"huge σ", 1e300, 1e300},
		{"σ far below the residuals", 1, 1e-200},
	} {
		c := pass2Base(rng, 13, sc.mean, sc.std)
		checkPass2(t, sc.name, c)
		c.std *= 1e-10 // every d large: whole blocks of zero weights
		checkPass2(t, sc.name+", weights underflow", c)
	}
	c = pass2Base(rng, 12, 0, 1)
	c.res[1], c.res[2], c.res[5] = 0, math.Copysign(0, -1), 0
	checkPass2(t, "r−mean=±0", c)
}

// FuzzReweightKernel compares reweightKernel2 with the generic pass 2 on
// arbitrary sizes and values: each pair of bytes in specials puts one
// pass2Unclean row at a position, and scale picks σ over 2¹⁰ orders of
// magnitude either way.
func FuzzReweightKernel(f *testing.F) {
	f.Add(int64(1), uint8(13), []byte{0, 0, 5, 3, 7, 11}, int8(0))
	f.Add(int64(2), uint8(64), []byte{3, 4, 4, 11, 8, 11}, int8(-100))
	f.Add(int64(3), uint8(9), []byte{}, int8(120))
	f.Add(int64(4), uint8(200), []byte{199, 1, 100, 7, 0, 9}, int8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRows uint8, specials []byte, scale int8) {
		if !useReweightKernel {
			t.Skip("reweightKernel2 was not chosen on this host")
		}
		rows := int(nRows)
		rng := rand.New(rand.NewSource(seed))
		std := math.Ldexp(0.5+rng.Float64(), 8*int(scale))
		c := pass2Base(rng, rows, std*rng.NormFloat64(), std)
		for i := 0; rows > 0 && i+1 < len(specials); i += 2 {
			pass2Unclean[int(specials[i+1])%len(pass2Unclean)].apply(&c, int(specials[i])%rows)
		}
		checkPass2(t, "fuzz", c)
	})
}
