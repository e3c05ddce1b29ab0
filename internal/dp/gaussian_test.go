package dp

import (
	"math"
	"testing"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

func TestClip(t *testing.T) {
	g := []float64{3, 4}
	pre := Clip(g, 1)
	if pre != 5 {
		t.Errorf("pre-clip norm = %g, want 5", pre)
	}
	if n := mathx.Norm2(g); math.Abs(n-1) > 1e-12 {
		t.Errorf("post-clip norm = %g, want 1", n)
	}
	// Non-positive threshold disables clipping.
	h := []float64{3, 4}
	Clip(h, 0)
	if h[0] != 3 || h[1] != 4 {
		t.Error("Clip with c=0 modified the vector")
	}
}

func TestGaussianMechanismZeroNoise(t *testing.T) {
	x := []float64{1, 2, 3}
	GaussianMechanism(x, 0, 5, xrand.New(1))
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Error("zero sensitivity should add no noise")
	}
	GaussianMechanism(x, 1, 0, xrand.New(1))
	if x[0] != 1 {
		t.Error("zero sigma should add no noise")
	}
}

func TestGaussianMechanismScale(t *testing.T) {
	const n = 100000
	x := make([]float64, n)
	GaussianMechanism(x, 2, 3, xrand.New(7))
	var sumSq float64
	for _, v := range x {
		sumSq += v * v
	}
	sd := math.Sqrt(sumSq / n)
	if math.Abs(sd-6) > 0.1 {
		t.Errorf("noise sd = %g, want approx 6", sd)
	}
}

func TestGaussianMechanismAtScale(t *testing.T) {
	const n = 100000
	x := make([]float64, n)
	GaussianMechanismAt(x, 2, 3, xrand.NewStream(7).Derive(1), 0)
	var sumSq float64
	for _, v := range x {
		sumSq += v * v
	}
	sd := math.Sqrt(sumSq / n)
	if math.Abs(sd-6) > 0.1 {
		t.Errorf("noise sd = %g, want approx 6", sd)
	}
}

func TestGaussianMechanismAtIsIndexAddressed(t *testing.T) {
	st := xrand.NewStream(9).Derive(4)
	// One shot over six coordinates vs two shards split at the pair
	// boundary: identical bits, the property the sharded update relies on.
	whole := make([]float64, 6)
	GaussianMechanismAt(whole, 1, 2, st, 0)
	parts := make([]float64, 6)
	GaussianMechanismAt(parts[:2], 1, 2, st, 0)
	GaussianMechanismAt(parts[2:], 1, 2, st, 2)
	for i := range whole {
		if whole[i] != parts[i] {
			t.Fatalf("coordinate %d: %g sharded vs %g whole", i, parts[i], whole[i])
		}
	}
	// Zero-noise cases leave x untouched.
	x := []float64{1, 2}
	GaussianMechanismAt(x, 0, 5, st, 0)
	GaussianMechanismAt(x, 5, 0, st, 0)
	if x[0] != 1 || x[1] != 2 {
		t.Error("zero sensitivity/sigma should add no noise")
	}
}

// TestGaussianMechanismAtShardsAtAnyOffset cuts one noise vector at every
// offset, odd ones included: each coordinate reads its own counter, so
// the shards reassemble the whole-vector bits.
func TestGaussianMechanismAtShardsAtAnyOffset(t *testing.T) {
	st := xrand.NewStream(3).Derive(8)
	whole := make([]float64, 7)
	GaussianMechanismAt(whole, 1, 2, st, 0)
	for cut := 1; cut < len(whole); cut++ {
		parts := make([]float64, len(whole))
		GaussianMechanismAt(parts[:cut], 1, 2, st, 0)
		GaussianMechanismAt(parts[cut:], 1, 2, st, uint64(cut))
		for i := range whole {
			if whole[i] != parts[i] {
				t.Fatalf("cut %d, coordinate %d: %g sharded vs %g whole", cut, i, parts[i], whole[i])
			}
		}
	}
}

func TestGaussianMechanismAtPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative sigma", func() {
		GaussianMechanismAt([]float64{1}, 1, -1, xrand.NewStream(1), 0)
	})
}

func TestGaussianMechanismPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sensitivity did not panic")
		}
	}()
	GaussianMechanism([]float64{1}, -1, 1, xrand.New(1))
}

func TestGaussianRDP(t *testing.T) {
	// ε(α) = α/(2σ²).
	if got := GaussianRDP(2, 5); math.Abs(got-2.0/50) > 1e-15 {
		t.Errorf("GaussianRDP(2, 5) = %g, want 0.04", got)
	}
	// Linear in α.
	if got := GaussianRDP(10, 5); math.Abs(got-5*GaussianRDP(2, 5)) > 1e-15 {
		t.Errorf("GaussianRDP not linear in alpha: %g", got)
	}
}

func TestGaussianRDPPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"alpha<=1": func() { GaussianRDP(1, 5) },
		"sigma<=0": func() { GaussianRDP(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
