package baselines

import (
	"context"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

func TestMoreNoiseWithTighterBudget(t *testing.T) {
	// Embeddings at ε=0.3 must be farther from the noise-free aggregation
	// than embeddings at ε=8 — the monotonicity behind Figure 3's GAP curve.
	g := graph.BarabasiAlbert(120, 3, xrand.New(1))
	cfg := testConfig()
	cfg.Dim = 16
	cfg.Seed = 2

	reference := noiseFreeAggregate(g, cfg)
	dist := func(eps float64) float64 {
		c := cfg
		c.Epsilon = eps
		res, err := GAP(context.Background(), g, c)
		if err != nil {
			t.Fatal(err)
		}
		var d float64
		emb := res.Embedding
		for i := range emb.Data {
			diff := emb.Data[i] - reference.Data[i]
			d += diff * diff
		}
		return d
	}
	if tight, loose := dist(0.3), dist(8); tight <= loose {
		t.Errorf("tighter budget should add more noise: dist(0.3)=%g <= dist(8)=%g", tight, loose)
	}
}

// noiseFreeAggregate replays GAP's pipeline without noise.
func noiseFreeAggregate(g *graph.Graph, cfg Config) *mathx.Matrix {
	rng := xrand.New(cfg.Seed ^ 0x474150)
	x := RandomFeatures(g.NumNodes(), cfg.Dim, rng)
	sum := mathx.NewMatrix(g.NumNodes(), cfg.Dim)
	cur := x
	for hop := 0; hop < hops; hop++ {
		agg := AggregateRaw(g, cur, false)
		sum.AddScaled(1, agg)
		cur = agg.Clone()
		NormalizeRows(cur)
	}
	mathx.Scale(1/float64(hops), sum.Data)
	return sum
}
