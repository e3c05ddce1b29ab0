package dp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSubsampledGaussianRDPEdgeCases(t *testing.T) {
	if got := SubsampledGaussianRDP(4, 0, 5); got != 0 {
		t.Errorf("gamma=0 gave %g, want 0", got)
	}
	if got, want := SubsampledGaussianRDP(4, 1, 5), GaussianRDP(4, 5); got != want {
		t.Errorf("gamma=1 gave %g, want unamplified %g", got, want)
	}
}

func TestSubsampledGaussianRDPAmplifies(t *testing.T) {
	// Small sampling rates must strictly reduce the bound.
	for _, alpha := range []int{2, 3, 8, 32, 64} {
		full := GaussianRDP(float64(alpha), 5)
		sub := SubsampledGaussianRDP(alpha, 0.01, 5)
		if sub >= full {
			t.Errorf("alpha=%d: subsampled %g not below full %g", alpha, sub, full)
		}
		if sub <= 0 {
			t.Errorf("alpha=%d: subsampled bound %g not positive", alpha, sub)
		}
	}
}

func TestSubsampledGaussianRDPMonotoneInGamma(t *testing.T) {
	for _, alpha := range []int{2, 5, 16} {
		prev := 0.0
		for _, gamma := range []float64{0.001, 0.01, 0.05, 0.2, 0.5, 1} {
			cur := SubsampledGaussianRDP(alpha, gamma, 5)
			if cur < prev-1e-15 {
				t.Errorf("alpha=%d: bound decreased from %g to %g at gamma=%g",
					alpha, prev, cur, gamma)
			}
			prev = cur
		}
	}
}

func TestSubsampledGaussianRDPQuadraticSmallGamma(t *testing.T) {
	// For small γ the leading term is γ²·C(α,2)·m2/(α−1): halving γ should
	// quarter the bound, approximately.
	alpha := 8
	e1 := SubsampledGaussianRDP(alpha, 0.002, 5)
	e2 := SubsampledGaussianRDP(alpha, 0.001, 5)
	ratio := e1 / e2
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("quadratic scaling violated: ratio %g, want approx 4", ratio)
	}
}

func TestSubsampledGaussianRDPNoOverflow(t *testing.T) {
	// Large α with small σ would overflow without log-space evaluation.
	got := SubsampledGaussianRDP(64, 0.1, 0.5)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("bound overflowed: %g", got)
	}
	if got <= 0 {
		t.Fatalf("bound %g not positive", got)
	}
}

func TestSubsampledGaussianRDPPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"alpha<2":  func() { SubsampledGaussianRDP(1, 0.1, 5) },
		"gamma<0":  func() { SubsampledGaussianRDP(2, -0.1, 5) },
		"gamma>1":  func() { SubsampledGaussianRDP(2, 1.1, 5) },
		"sigma<=0": func() { SubsampledGaussianRDP(2, 0.1, 0) },
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

func TestRDPToDPAndBack(t *testing.T) {
	// Round trip: δ(ε(δ)) == δ at the same order.
	alpha, epsAlpha, delta := 10.0, 0.5, 1e-5
	eps := RDPToDP(alpha, epsAlpha, delta)
	back := RDPToDelta(alpha, epsAlpha, eps)
	if math.Abs(back-delta) > 1e-12 {
		t.Errorf("round trip delta = %g, want %g", back, delta)
	}
}

func TestRDPToDeltaCapped(t *testing.T) {
	if got := RDPToDelta(2, 100, 0.1); got != 1 {
		t.Errorf("delta should cap at 1, got %g", got)
	}
}

func TestAccountantComposition(t *testing.T) {
	a := NewAccountant(nil)
	a.AddGaussianStep(0.05, 5)
	one := a.RDPAt(8)
	for i := 0; i < 9; i++ {
		a.AddGaussianStep(0.05, 5)
	}
	if got := a.RDPAt(8); math.Abs(got-10*one) > 1e-12 {
		t.Errorf("10-step RDP = %g, want %g (linear composition)", got, 10*one)
	}
	if a.Steps() != 10 {
		t.Errorf("Steps = %d, want 10", a.Steps())
	}
}

func TestAccountantEpsilonDecreasingInDelta(t *testing.T) {
	a := NewAccountant(nil)
	for i := 0; i < 50; i++ {
		a.AddGaussianStep(0.02, 5)
	}
	e1, _ := a.EpsilonFor(1e-6)
	e2, _ := a.EpsilonFor(1e-4)
	if e2 >= e1 {
		t.Errorf("epsilon should shrink with larger delta: ε(1e-6)=%g, ε(1e-4)=%g", e1, e2)
	}
}

func TestAccountantDeltaGrowsWithSteps(t *testing.T) {
	a := NewAccountant(nil)
	const targetEps = 1.0
	prev := 0.0
	for i := 0; i < 200; i++ {
		a.AddGaussianStep(0.05, 5)
		d, _ := a.DeltaFor(targetEps)
		if d < prev-1e-18 {
			t.Fatalf("delta decreased after a step: %g -> %g", prev, d)
		}
		prev = d
	}
	if prev <= 0 {
		t.Fatal("delta never became positive")
	}
}

func TestAccountantStoppingRuleConsistency(t *testing.T) {
	// If DeltaFor(eps) < delta then EpsilonFor(delta) <= eps must hold:
	// both express the same RDP curve.
	a := NewAccountant(nil)
	for i := 0; i < 100; i++ {
		a.AddGaussianStep(0.03, 5)
	}
	const eps, delta = 2.0, 1e-5
	dHat, _ := a.DeltaFor(eps)
	eHat, _ := a.EpsilonFor(delta)
	if dHat < delta && eHat > eps+1e-9 {
		t.Errorf("inconsistent conversions: δ̂=%g < δ but ε̂=%g > ε", dHat, eHat)
	}
}

func TestAccountantPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("order < 2 did not panic")
		}
	}()
	NewAccountant([]int{1})
}

func TestAccountantRDPAtUnknownOrderPanics(t *testing.T) {
	a := NewAccountant([]int{2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown order did not panic")
		}
	}()
	a.RDPAt(64)
}

func TestRDPBeatsNaiveComposition(t *testing.T) {
	// The ablation claim: over many epochs, RDP composition certifies a far
	// smaller ε than basic composition for the same mechanism.
	const sigma, delta = 5.0, 1e-5
	const epochs = 500
	a := NewAccountant(nil)
	for i := 0; i < epochs; i++ {
		a.AddGaussianStep(1, sigma) // no subsampling: worst case for RDP
	}
	rdpEps, _ := a.EpsilonFor(delta)
	naive := NaiveCompositionEpsilon(GaussianDPEpsilon(sigma, delta), epochs)
	if rdpEps >= naive {
		t.Errorf("RDP ε=%g not below naive composition ε=%g", rdpEps, naive)
	}
}

func TestSubsampledRDPPropertyBounds(t *testing.T) {
	// Property: for any valid (alpha, gamma, sigma) the bound is finite,
	// non-negative, and never exceeds the unamplified value.
	f := func(rawAlpha uint8, rawGamma, rawSigma float64) bool {
		alpha := 2 + int(rawAlpha)%63
		gamma := math.Abs(math.Mod(rawGamma, 1))
		sigma := 0.5 + math.Abs(math.Mod(rawSigma, 10))
		if math.IsNaN(gamma) || math.IsNaN(sigma) {
			return true
		}
		got := SubsampledGaussianRDP(alpha, gamma, sigma)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			return false
		}
		return got <= GaussianRDP(float64(alpha), sigma)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAccountantStepCacheMatchesRecompute pins AddGaussianStep's cached
// per-order vector to per-step recomputation, bit for bit, across changes
// of γ and σ together and of each alone, a change back, and a restore
// through NewAccountantFromState between steps — and checks that a
// repeated step allocates nothing.
func TestAccountantStepCacheMatchesRecompute(t *testing.T) {
	type params struct{ gamma, sigma float64 }
	a, b := params{128.0 / 7000, 5}, params{0.05, 1.3}
	sigmaOnly, gammaOnly := params{a.gamma, 2.5}, params{b.gamma, 2.5}
	seq := []params{a, a, a, b, b, a, sigmaOnly, sigmaOnly, gammaOnly, a, b}
	const restoreAfter = 4

	acct := NewAccountant(nil)
	want := make([]float64, len(DefaultOrders()))
	for k, p := range seq {
		if k == restoreAfter {
			var err error
			if acct, err = NewAccountantFromState(acct.State()); err != nil {
				t.Fatal(err)
			}
		}
		acct.AddGaussianStep(p.gamma, p.sigma)
		for i, ord := range DefaultOrders() {
			want[i] += SubsampledGaussianRDP(ord, p.gamma, p.sigma)
		}
		st := acct.State()
		for i, got := range st.Eps {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("step %d order %d: cached total %v, recomputed %v", k, st.Orders[i], got, want[i])
			}
		}
		if st.Steps != k+1 {
			t.Fatalf("step %d: Steps = %d", k, st.Steps)
		}
	}

	if allocs := testing.AllocsPerRun(100, func() { acct.AddGaussianStep(b.gamma, b.sigma) }); allocs != 0 {
		t.Errorf("repeated AddGaussianStep allocates %.1f objects per call, want 0", allocs)
	}
}
