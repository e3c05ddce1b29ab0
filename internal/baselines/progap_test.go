package baselines

import (
	"context"
	"testing"

	"seprivgemb/internal/eval"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

func TestProGAPAtLeastMatchesGAPOnStructure(t *testing.T) {
	// The figure's expected ordering: ProGAP ≥ GAP at equal budget — the
	// progressive stages reuse perturbed signal instead of re-aggregating
	// raw features. Checked at a generous budget where both have signal.
	g := graph.BarabasiAlbert(150, 4, xrand.New(3))
	cfg := testConfig()
	cfg.Dim = 24
	cfg.Epsilon = 3.5
	var pro, plain float64
	for seed := uint64(0); seed < 3; seed++ {
		cfg.Seed = seed
		resP, err := ProGAP(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resG, err := GAP(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pro += eval.StrucEqu(g, resP.Embedding)
		plain += eval.StrucEqu(g, resG.Embedding)
	}
	if pro < plain-0.15 {
		t.Errorf("ProGAP mean StrucEqu %g far below GAP %g", pro/3, plain/3)
	}
}
