package dp

import (
	"fmt"
	"math"

	"seprivgemb/internal/mathx"
)

// SubsampledGaussianRDP returns the RDP bound ε'(α) of one application of
// the Gaussian mechanism (noise multiplier sigma) on a subsample drawn
// without replacement with rate gamma, at integer order alpha ≥ 2.
//
// This is Theorem 4 of the paper (the Wang–Balle–Kasiviswanathan bound):
//
//	ε'(α) ≤ 1/(α−1) · log( 1
//	        + γ²·C(α,2)·min{ 4(e^{ε(2)}−1), e^{ε(2)}·min{2, (e^{ε(∞)}−1)²} }
//	        + Σ_{j=3..α} γ^j·C(α,j)·e^{(j−1)ε(j)}·min{2, (e^{ε(∞)}−1)^j} )
//
// For the Gaussian mechanism ε(∞) = ∞, so the inner min factors collapse to
// the constant 2. The sum is evaluated in log space with log-binomials so it
// cannot overflow for large α. Because subsampling never hurts, the result
// is capped at the unamplified ε(α).
func SubsampledGaussianRDP(alpha int, gamma, sigma float64) float64 {
	if alpha < 2 {
		panic(fmt.Sprintf("dp: SubsampledGaussianRDP needs integer alpha >= 2, got %d", alpha))
	}
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("dp: sampling rate gamma=%g outside [0,1]", gamma))
	}
	base := GaussianRDP(float64(alpha), sigma)
	if gamma == 0 {
		return 0
	}
	if gamma == 1 {
		return base
	}
	eps := func(j int) float64 { return GaussianRDP(float64(j), sigma) }
	logGamma := math.Log(gamma)

	// j = 2 term: γ²·C(α,2)·min{4(e^{ε(2)}−1), 2e^{ε(2)}}.
	e2 := eps(2)
	var logM2 float64
	// log(4(e^{ε2}−1)) vs log(2 e^{ε2}); use expm1 for small ε2.
	logA := math.Log(4) + math.Log(math.Expm1(e2))
	logB := math.Log(2) + e2
	if logA < logB {
		logM2 = logA
	} else {
		logM2 = logB
	}
	terms := []float64{0, 2*logGamma + mathx.LogBinomial(alpha, 2) + logM2}

	// j >= 3 terms: γ^j·C(α,j)·e^{(j−1)ε(j)}·2.
	for j := 3; j <= alpha; j++ {
		t := float64(j)*logGamma + mathx.LogBinomial(alpha, j) +
			float64(j-1)*eps(j) + math.Log(2)
		terms = append(terms, t)
	}
	inside := mathx.LogSumExp(terms)
	bound := inside / float64(alpha-1)
	if bound > base {
		return base
	}
	return bound
}

// RDPToDP converts an (α, ε_α)-RDP guarantee into (ε, δ)-DP via Theorem 1:
// ε = ε_α + log(1/δ)/(α−1).
func RDPToDP(alpha float64, epsAlpha, delta float64) float64 {
	if alpha <= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("dp: RDPToDP(alpha=%g, delta=%g) invalid", alpha, delta))
	}
	return epsAlpha + math.Log(1/delta)/(alpha-1)
}

// RDPToDelta inverts the conversion: given a target ε, the smallest failure
// probability certified by an (α, ε_α)-RDP guarantee is
// δ = exp((α−1)(ε_α − ε)) (capped at 1).
func RDPToDelta(alpha float64, epsAlpha, eps float64) float64 {
	if alpha <= 1 {
		panic(fmt.Sprintf("dp: RDPToDelta(alpha=%g) invalid", alpha))
	}
	d := math.Exp((alpha - 1) * (epsAlpha - eps))
	if d > 1 {
		return 1
	}
	return d
}

// DefaultOrders is the grid of Rényi orders the accountant tracks. Theorem 4
// requires integer orders; 2..64 covers the regimes of the paper's settings
// (σ=5, γ≈10⁻³..10⁻¹).
func DefaultOrders() []int {
	orders := make([]int, 0, 63)
	for a := 2; a <= 64; a++ {
		orders = append(orders, a)
	}
	return orders
}

// Accountant accumulates RDP over training epochs at a grid of orders and
// answers ε(δ) and δ(ε) queries by optimizing over the grid. It implements
// the sequential-composition property: RDP of a composition is the sum of
// per-step RDP at each order.
type Accountant struct {
	orders []int
	eps    []float64 // accumulated ε at each order
	steps  int
	// step caches the per-order RDP of one step at (gamma, sigma), the
	// parameters of the last AddGaussianStep; empty until the first.
	step         []float64
	gamma, sigma float64
}

// NewAccountant returns an accountant over the given orders
// (DefaultOrders() when nil).
func NewAccountant(orders []int) *Accountant {
	if len(orders) == 0 {
		orders = DefaultOrders()
	}
	for _, a := range orders {
		if a < 2 {
			panic(fmt.Sprintf("dp: accountant order %d < 2", a))
		}
	}
	return &Accountant{orders: orders, eps: make([]float64, len(orders))}
}

// Steps returns the number of composed steps so far.
func (a *Accountant) Steps() int { return a.steps }

// AddGaussianStep composes one epoch of the subsampled Gaussian mechanism
// with sampling rate gamma and noise multiplier sigma (Algorithm 2 line 8,
// γ = B/|E|). The per-order vector is computed once per (gamma, sigma)
// and reused while they stay the same, which a training run's do; the
// totals are the same sums, in the same order, as recomputing each step.
func (a *Accountant) AddGaussianStep(gamma, sigma float64) {
	if len(a.step) == 0 || gamma != a.gamma || sigma != a.sigma {
		step := make([]float64, len(a.orders))
		for i, ord := range a.orders {
			step[i] = SubsampledGaussianRDP(ord, gamma, sigma)
		}
		a.step, a.gamma, a.sigma = step, gamma, sigma
	}
	for i, v := range a.step {
		a.eps[i] += v
	}
	a.steps++
}

// EpsilonFor returns the tightest (ε, δ)-DP guarantee certified so far for
// the given δ, and the order that achieved it.
func (a *Accountant) EpsilonFor(delta float64) (eps float64, order int) {
	best := math.Inf(1)
	bestOrd := a.orders[0]
	for i, ord := range a.orders {
		e := RDPToDP(float64(ord), a.eps[i], delta)
		if e < best {
			best, bestOrd = e, ord
		}
	}
	return best, bestOrd
}

// DeltaFor returns the smallest certified failure probability δ̂ for a
// target ε, and the order that achieved it. This is the "get privacy spent
// given the target ε" step of Algorithm 2 (line 9); training stops when the
// returned δ̂ reaches the budgeted δ (line 10).
func (a *Accountant) DeltaFor(eps float64) (delta float64, order int) {
	best := 1.0
	bestOrd := a.orders[0]
	for i, ord := range a.orders {
		d := RDPToDelta(float64(ord), a.eps[i], eps)
		if d < best {
			best, bestOrd = d, ord
		}
	}
	return best, bestOrd
}

// AccountantState is a serializable snapshot of an Accountant, captured by
// State and restored by NewAccountantFromState. It is part of the training
// checkpoint format (DESIGN.md §8): resuming a private run must continue
// RDP composition from the exact per-order totals, or the δ̂ ≥ δ stopping
// rule would fire at a different epoch than the uninterrupted run.
type AccountantState struct {
	Orders []int
	Eps    []float64
	Steps  int
}

// State returns a deep snapshot of the accountant's composition so far.
func (a *Accountant) State() AccountantState {
	return AccountantState{
		Orders: append([]int(nil), a.orders...),
		Eps:    append([]float64(nil), a.eps...),
		Steps:  a.steps,
	}
}

// NewAccountantFromState reconstructs an accountant from a snapshot.
func NewAccountantFromState(st AccountantState) (*Accountant, error) {
	if len(st.Orders) == 0 || len(st.Orders) != len(st.Eps) {
		return nil, fmt.Errorf("dp: accountant state with %d orders, %d eps entries",
			len(st.Orders), len(st.Eps))
	}
	for _, a := range st.Orders {
		if a < 2 {
			return nil, fmt.Errorf("dp: accountant state order %d < 2", a)
		}
	}
	if st.Steps < 0 {
		return nil, fmt.Errorf("dp: accountant state with %d steps", st.Steps)
	}
	return &Accountant{
		orders: append([]int(nil), st.Orders...),
		eps:    append([]float64(nil), st.Eps...),
		steps:  st.Steps,
	}, nil
}

// RDPAt returns the accumulated RDP ε at the given order, for inspection
// and testing. It panics if the order is not tracked.
func (a *Accountant) RDPAt(order int) float64 {
	for i, ord := range a.orders {
		if ord == order {
			return a.eps[i]
		}
	}
	panic(fmt.Sprintf("dp: order %d not tracked", order))
}

// CalibrateGaussianSigma returns the smallest noise multiplier σ such that
// `steps` compositions of the (unsubsampled) Gaussian mechanism satisfy
// (ε, δ)-DP, found by bisection over the accountant's conversion. Used by
// the aggregation-perturbation baselines, which must split a fixed budget
// across a known number of perturbed aggregation steps.
func CalibrateGaussianSigma(eps, delta float64, steps int) float64 {
	if eps <= 0 || delta <= 0 || delta >= 1 || steps < 1 {
		panic(fmt.Sprintf("dp: CalibrateGaussianSigma(%g, %g, %d) invalid", eps, delta, steps))
	}
	spent := func(sigma float64) float64 {
		best := math.Inf(1)
		for a := 2; a <= 256; a++ {
			e := RDPToDP(float64(a), float64(steps)*GaussianRDP(float64(a), sigma), delta)
			if e < best {
				best = e
			}
		}
		return best
	}
	lo, hi := 1e-3, 1e6
	for iter := 0; iter < 200 && spent(hi) > eps; iter++ {
		hi *= 2
	}
	for iter := 0; iter < 100; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection over scales
		if spent(mid) > eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// NaiveCompositionEpsilon returns the ε of m-fold basic (linear) sequential
// composition of an (ε₀, δ₀)-DP mechanism, used by the accountant ablation
// to show how much RDP composition saves: under basic composition the
// budget grows as m·ε₀ while RDP grows like √m for the Gaussian mechanism.
func NaiveCompositionEpsilon(eps0 float64, m int) float64 {
	return float64(m) * eps0
}

// GaussianDPEpsilon returns the classical single-shot (ε, δ) of the
// Gaussian mechanism with noise multiplier sigma: the smallest ε certified
// by its RDP curve at the given δ. Used as the ε₀ for naive composition.
func GaussianDPEpsilon(sigma, delta float64) float64 {
	best := math.Inf(1)
	for a := 2; a <= 512; a++ {
		e := RDPToDP(float64(a), GaussianRDP(float64(a), sigma), delta)
		if e < best {
			best = e
		}
	}
	return best
}
