// Package nn is a minimal fully-connected neural-network substrate with
// manual backpropagation and a DPSGD optimizer (per-example clipping +
// Gaussian noise, Eq. (3)). It exists to support the deep baselines the
// paper compares against — DPGGAN, DPGVAE, GAP and ProGAP — without any
// external ML dependency.
package nn

import (
	"fmt"
	"math"
	"slices"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

// Activation selects a layer nonlinearity.
type Activation int

const (
	// Identity applies no nonlinearity.
	Identity Activation = iota
	// ReLU is max(0, x).
	ReLU
	// Tanh is the hyperbolic tangent.
	Tanh
	// Sigmoid is the logistic function.
	Sigmoid
)

func (a Activation) Apply(x float64) float64 {
	switch a {
	case Identity:
		return x
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return mathx.Sigmoid(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// derivFromOutput returns dact/dpre given the post-activation value, which
// is available for all supported activations.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Identity:
		return 1
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// Dense is one fully connected layer y = act(W·x + b).
type Dense struct {
	In, Out int
	W       *mathx.Matrix // Out×In
	B       []float64
	Act     Activation
}

// MLP is a stack of dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes (len >= 2) and one
// activation per layer transition. Weights use Xavier-uniform init.
func NewMLP(sizes []int, acts []Activation, rng *xrand.RNG) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs at least 2 sizes, got %v", sizes))
	}
	if len(acts) != len(sizes)-1 {
		panic(fmt.Sprintf("nn: %d activations for %d transitions", len(acts), len(sizes)-1))
	}
	m := &MLP{}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		d := &Dense{In: in, Out: out, W: mathx.NewMatrix(out, in), B: make([]float64, out), Act: acts[l]}
		bound := math.Sqrt(6 / float64(in+out))
		for i := range d.W.Data {
			d.W.Data[i] = (2*rng.Float64() - 1) * bound
		}
		m.Layers = append(m.Layers, d)
	}
	return m
}

// OutDim returns the network's output dimension.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// InDim returns the network's input dimension.
func (m *MLP) InDim() int { return m.Layers[0].In }

// Cache stores per-layer post-activation values from a forward pass, as
// needed by Backward. Index 0 is the input; index l+1 the output of layer l.
type Cache struct {
	acts [][]float64
}

// Forward runs x through the network, recording activations in cache
// (which is resized as needed) and returning the output slice (owned by the
// cache; copy it to retain beyond the next Forward).
func (m *MLP) Forward(x []float64, cache *Cache) []float64 {
	if len(x) != m.InDim() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.InDim()))
	}
	need := len(m.Layers) + 1
	for len(cache.acts) < need {
		cache.acts = append(cache.acts, nil)
	}
	if cap(cache.acts[0]) < len(x) {
		cache.acts[0] = make([]float64, len(x))
	}
	cache.acts[0] = cache.acts[0][:len(x)]
	copy(cache.acts[0], x)
	cur := cache.acts[0]
	for l, layer := range m.Layers {
		if cap(cache.acts[l+1]) < layer.Out {
			cache.acts[l+1] = make([]float64, layer.Out)
		}
		out := cache.acts[l+1][:layer.Out]
		layer.W.MulVec(out, cur)
		for i := range out {
			out[i] = layer.Act.Apply(out[i] + layer.B[i])
		}
		cache.acts[l+1] = out
		cur = out
	}
	return cur
}

// Output returns the most recent forward output stored in the cache.
func (c *Cache) Output() []float64 { return c.acts[len(c.acts)-1] }

// Layer returns the post-activation values of layer l from the most recent
// forward pass; l = 0 is the input, l = 1 the first hidden layer.
func (c *Cache) Layer(l int) []float64 { return c.acts[l] }

// Grads accumulates parameter gradients with the same shapes as the MLP.
type Grads struct {
	W []*mathx.Matrix
	B [][]float64
}

// NewGrads allocates zero gradients shaped like m.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	for _, l := range m.Layers {
		g.W = append(g.W, mathx.NewMatrix(l.Out, l.In))
		g.B = append(g.B, make([]float64, l.Out))
	}
	return g
}

// Zero resets all gradients.
func (g *Grads) Zero() {
	for i := range g.W {
		g.W[i].Zero()
		mathx.Zero(g.B[i])
	}
}

// Add accumulates other into g.
func (g *Grads) Add(other *Grads) {
	for i := range g.W {
		g.W[i].AddScaled(1, other.W[i])
		mathx.AXPY(1, other.B[i], g.B[i])
	}
}

// Norm returns the global ℓ2 norm across all parameters.
func (g *Grads) Norm() float64 {
	var sq float64
	for i := range g.W {
		sq += mathx.Norm2Sq(g.W[i].Data)
		sq += mathx.Norm2Sq(g.B[i])
	}
	return math.Sqrt(sq)
}

// Clip rescales the whole gradient to global ℓ2 norm at most c (Eq. 3).
func (g *Grads) Clip(c float64) {
	if c <= 0 {
		return
	}
	n := g.Norm()
	if n <= c {
		return
	}
	f := c / n
	for i := range g.W {
		mathx.Scale(f, g.W[i].Data)
		mathx.Scale(f, g.B[i])
	}
}

// AddNoise perturbs every coordinate with N(0, sd²), addressed through the
// counter stream by (layer, flat coordinate): layer i draws from the
// substream s.Derive(i), its weight entry d at counter d and its bias
// entry d at counter len(W)+d. Index-addressed noise is the determinism
// contract of the DP training paths (see internal/xrand): the same (seed,
// layer, coordinate) always receives the same perturbation, independent of
// draw order, so repeated DPSGD runs of one config are bit-identical.
func (g *Grads) AddNoise(sd float64, s xrand.Stream) {
	if sd <= 0 {
		return
	}
	var z []float64
	for i := range g.W {
		ls := s.Derive(uint64(i))
		w, b := g.W[i].Data, g.B[i]
		z = slices.Grow(z[:0], len(w)+len(b))[:len(w)+len(b)]
		ls.NormalsAt(z, 0)
		for d := range w {
			w[d] += sd * z[d]
		}
		for d := range b {
			b[d] += sd * z[len(w)+d]
		}
	}
}

// Backward backpropagates dLoss/dOutput through the network for the forward
// pass recorded in cache, accumulating parameter gradients into g and
// returning dLoss/dInput (owned by Backward's scratch; copy to retain).
func (m *MLP) Backward(cache *Cache, gradOut []float64, g *Grads) []float64 {
	delta := append([]float64(nil), gradOut...)
	for l := len(m.Layers) - 1; l >= 0; l-- {
		layer := m.Layers[l]
		out := cache.acts[l+1]
		in := cache.acts[l]
		// Through the activation.
		for i := range delta {
			delta[i] *= layer.Act.derivFromOutput(out[i])
		}
		// Parameter gradients: dW = delta ⊗ in, db = delta.
		gw := g.W[l]
		for i := 0; i < layer.Out; i++ {
			mathx.AXPY(delta[i], in, gw.Row(i))
		}
		mathx.AXPY(1, delta, g.B[l])
		// Input gradient: Wᵀ·delta.
		next := make([]float64, layer.In)
		layer.W.MulVecT(next, delta)
		delta = next
	}
	return delta
}

// ApplySGD performs one SGD step θ -= lr/scale · g.
func (m *MLP) ApplySGD(g *Grads, lr float64, scale float64) {
	f := -lr / scale
	for l, layer := range m.Layers {
		layer.W.AddScaled(f, g.W[l])
		mathx.AXPY(f, g.B[l], layer.B)
	}
}

// BCEWithLogits returns the binary cross-entropy between logit z and target
// t ∈ {0,1} and its derivative σ(z) − t, both computed stably.
func BCEWithLogits(z, t float64) (loss, dz float64) {
	s := mathx.Sigmoid(z)
	if t > 0.5 {
		loss = -mathx.LogSigmoid(z)
	} else {
		loss = -mathx.LogSigmoid(-z)
	}
	return loss, s - t
}

// MSE returns ½(y−t)² and its derivative y − t.
func MSE(y, t float64) (loss, dy float64) {
	d := y - t
	return 0.5 * d * d, d
}
