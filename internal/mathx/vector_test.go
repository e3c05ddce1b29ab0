package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{0, 0}, []float64{1, -1}, 0},
		{nil, nil, 0},
		{[]float64{-1.5}, []float64{2}, -3},
	}
	for _, c := range cases {
		if got := Dot(c.x, c.y); got != c.want {
			t.Errorf("Dot(%v, %v) = %g, want %g", c.x, c.y, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1, 1}
	AXPY(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("AXPY result %v, want %v", y, want)
		}
	}
}

func TestScaleAndZero(t *testing.T) {
	x := []float64{2, -4, 6}
	Scale(0.5, x)
	if x[0] != 1 || x[1] != -2 || x[2] != 3 {
		t.Fatalf("Scale result %v", x)
	}
	Zero(x)
	for _, v := range x {
		if v != 0 {
			t.Fatalf("Zero left %v", x)
		}
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, 4}
	if got := Norm2(x); got != 5 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := Norm2Sq(x); got != 25 {
		t.Errorf("Norm2Sq = %g, want 25", got)
	}
	if got := EuclideanDistance([]float64{0, 0}, x); got != 5 {
		t.Errorf("EuclideanDistance = %g, want 5", got)
	}
}

// TestScaledNorm2SqMatchesMaterialized pins ScaledNorm2Sq(a, x) to
// Norm2Sq of the written-out vector fl(a·x) bit for bit, across lengths
// that exercise the four-lane body and every tail length.
func TestScaledNorm2SqMatchesMaterialized(t *testing.T) {
	f := func(a float64, raw []float64) bool {
		for n := 0; n <= len(raw); n++ {
			x := raw[:n]
			ax := make([]float64, n)
			for i, v := range x {
				ax[i] = a * v
			}
			if math.Float64bits(ScaledNorm2Sq(a, x)) != math.Float64bits(Norm2Sq(ax)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	// Welford's running-mean divisions round, so the single-pass result
	// matches the closed form to tolerance rather than exactly.
	if got := Variance(x); !AlmostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(x); !AlmostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g, want 0", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance(single) = %g, want 0", got)
	}
}

func TestSampleStdDev(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	// sample variance = (2.25+0.25+0.25+2.25)/3 = 5/3
	want := math.Sqrt(5.0 / 3.0)
	if got := SampleStdDev(x); !AlmostEqual(got, want, 1e-12) {
		t.Errorf("SampleStdDev = %g, want %g", got, want)
	}
	if got := SampleStdDev([]float64{7}); got != 0 {
		t.Errorf("SampleStdDev(single) = %g, want 0", got)
	}
}

func TestClipNorm2(t *testing.T) {
	x := []float64{3, 4} // norm 5
	pre := ClipNorm2(x, 1)
	if pre != 5 {
		t.Errorf("pre-clip norm = %g, want 5", pre)
	}
	if got := Norm2(x); !AlmostEqual(got, 1, 1e-12) {
		t.Errorf("post-clip norm = %g, want 1", got)
	}
	// Below the threshold the vector is untouched.
	y := []float64{0.3, 0.4}
	ClipNorm2(y, 1)
	if y[0] != 0.3 || y[1] != 0.4 {
		t.Errorf("ClipNorm2 modified a vector under the threshold: %v", y)
	}
}

func TestClipNorm2Property(t *testing.T) {
	// Property: after clipping with any positive threshold, the norm never
	// exceeds the threshold (within float tolerance), and direction is
	// preserved.
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		thr := math.Abs(c)
		if thr == 0 || math.IsNaN(thr) || math.IsInf(thr, 0) {
			thr = 1
		}
		x := []float64{a, b}
		ClipNorm2(x, thr)
		return Norm2(x) <= thr*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
