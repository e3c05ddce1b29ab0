package core

import (
	"context"
	"math"
	"testing"

	"seprivgemb/internal/datasets"
	"seprivgemb/internal/dp"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.BarabasiAlbert(60, 2, xrand.New(42))
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.BatchSize = 32
	cfg.MaxEpochs = 30
	cfg.Seed = 1
	return cfg
}

func TestTrainNonPrivateLossDecreases(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	cfg.Private = false
	cfg.Clip = 0
	cfg.MaxEpochs = 120
	res, err := Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 120 {
		t.Fatalf("epochs = %d, want 120", res.Epochs)
	}
	head := mathx.Mean(res.LossHistory[:20])
	tail := mathx.Mean(res.LossHistory[len(res.LossHistory)-20:])
	if tail >= head {
		t.Errorf("loss did not decrease: head %g, tail %g", head, tail)
	}
}

func TestTrainDeterministic(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	a, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Model.Win.(*mathx.Matrix).Data {
		if a.Model.Win.(*mathx.Matrix).Data[i] != b.Model.Win.(*mathx.Matrix).Data[i] {
			t.Fatal("same seed produced different embeddings")
		}
	}
	cfg.Seed = 2
	c, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Model.Win.(*mathx.Matrix).Data {
		if a.Model.Win.(*mathx.Matrix).Data[i] != c.Model.Win.(*mathx.Matrix).Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical embeddings")
	}
}

func TestTrainPrivateAccountsBudget(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	res, err := Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsilonSpent <= 0 {
		t.Errorf("EpsilonSpent = %g, want positive", res.EpsilonSpent)
	}
	if res.DeltaSpent <= 0 || res.DeltaSpent >= 1 {
		t.Errorf("DeltaSpent = %g, want in (0,1)", res.DeltaSpent)
	}
}

// TestTrainSpendMatchesFreshAccountant is the privacy invariant on the
// running engine: the ε and δ̂ a private run reports equal those of a fresh
// dp.Accountant composed res.Epochs times at γ = B/|E| — for a run that
// completes, one the budget stops, and one resumed from a checkpoint. The
// graph is large enough (γ ≈ 0.03) that subsampling amplifies the RDP
// bound, so the reported spend depends on γ.
func TestTrainSpendMatchesFreshAccountant(t *testing.T) {
	g := graph.BarabasiAlbert(400, 3, xrand.New(42))
	check := func(label string, cfg Config, res *Result) {
		t.Helper()
		acct := dp.NewAccountant(nil)
		for i := 0; i < res.Epochs; i++ {
			acct.AddGaussianStep(float64(cfg.BatchSize)/float64(g.NumEdges()), cfg.Sigma)
		}
		eps, _ := acct.EpsilonFor(cfg.Delta)
		delta, _ := acct.DeltaFor(cfg.Epsilon)
		if math.Float64bits(res.EpsilonSpent) != math.Float64bits(eps) ||
			math.Float64bits(res.DeltaSpent) != math.Float64bits(delta) {
			t.Errorf("%s: after %d epochs the run reports ε=%v δ̂=%v, a fresh accountant ε=%v δ̂=%v",
				label, res.Epochs, res.EpsilonSpent, res.DeltaSpent, eps, delta)
		}
	}

	stop := smallConfig()
	stop.Sigma, stop.Epsilon = 1.5, 1 // spent at epoch 11 of 30
	res, err := Train(g, proximity.NewDegree(g), stop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopBudget {
		t.Fatalf("budget run did not stop on its budget after %d epochs", res.Epochs)
	}
	check("budget-stopped", stop, res)

	cfg := smallConfig()
	full, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stopped != StopCompleted {
		t.Fatalf("run stopped at epoch %d: %v", full.Epochs, full.Stopped)
	}
	check("completed", cfg, full)

	leg1 := cfg
	leg1.MaxEpochs = 12
	part, err := TrainContext(context.Background(), g, proximity.NewDegree(g), leg1,
		Hooks{Checkpoint: func(*Checkpoint) {}})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := TrainContext(context.Background(), g, proximity.NewDegree(g), cfg,
		Hooks{Resume: part.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Epochs != cfg.MaxEpochs {
		t.Fatalf("resumed run ended at epoch %d, want %d", resumed.Epochs, cfg.MaxEpochs)
	}
	check("resumed", cfg, resumed)
}

func TestTrainStopsOnBudget(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	cfg.Sigma = 0.6    // very little noise: budget burns fast
	cfg.Epsilon = 0.05 // tiny target
	cfg.MaxEpochs = 5000
	res, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopBudget {
		t.Fatalf("training ran all %d epochs without exhausting ε=%g, δ̂=%g",
			res.Epochs, cfg.Epsilon, res.DeltaSpent)
	}
	if res.Epochs >= cfg.MaxEpochs {
		t.Errorf("stopped flag set but all epochs ran")
	}
	if res.DeltaSpent < cfg.Delta {
		t.Errorf("stopped with δ̂=%g below budget δ=%g", res.DeltaSpent, cfg.Delta)
	}
}

func TestTrainBudgetMonotoneInEpochs(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	cfg.MaxEpochs = 10
	short, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxEpochs = 40
	long, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if long.EpsilonSpent <= short.EpsilonSpent {
		t.Errorf("ε did not grow with epochs: %g (40) vs %g (10)",
			long.EpsilonSpent, short.EpsilonSpent)
	}
}

func TestTrainValidation(t *testing.T) {
	g := smallGraph(t)
	prox := proximity.NewDegree(g)
	bad := []func(*Config){
		func(c *Config) { c.Dim = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.BatchSize = g.NumEdges() + 1 },
		func(c *Config) { c.MaxEpochs = 0 },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.Clip = 0 },
		func(c *Config) { c.Sigma = 0 },
		func(c *Config) { c.Epsilon = 0 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.Delta = 1 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Train(g, prox, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	empty := graph.NewBuilder(3).Build()
	if _, err := Train(empty, proximity.NewDegree(empty), smallConfig()); err == nil {
		t.Error("edgeless graph accepted")
	}
}

// TestValidateRejectsNonFinite: NaN and ±Inf in every float field are
// validation errors, private or not. NaN used to pass the sign checks:
// σ = NaN certified ε = +Inf, and C = +Inf or η = NaN trained non-finite
// coordinates, all without an error.
func TestValidateRejectsNonFinite(t *testing.T) {
	g := smallGraph(t)
	fields := map[string]func(*Config) *float64{
		"LearningRate": func(c *Config) *float64 { return &c.LearningRate },
		"Clip":         func(c *Config) *float64 { return &c.Clip },
		"Sigma":        func(c *Config) *float64 { return &c.Sigma },
		"Epsilon":      func(c *Config) *float64 { return &c.Epsilon },
		"Delta":        func(c *Config) *float64 { return &c.Delta },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, private := range []bool{true, false} {
				cfg := smallConfig()
				cfg.Private = private
				*field(&cfg) = v
				if err := cfg.Validate(g); err == nil {
					t.Errorf("%s = %g (private %v) accepted", name, v, private)
				}
			}
		}
	}
	if err := smallConfig().Validate(g); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// applyWith runs one perturb-and-apply pass of matrix w through a fresh
// engine at the config's worker count, seeding the noise stream directly.
// Contribution p touches rows[p] with the unclipped gradient gs[p]: for
// Win it is slot p's GIn, for Wout slot p's one rank-1 context row
// 1·v_I with v_I = gs[p] (the engine runs at K = 0, one context row per
// slot).
func applyWith(cfg Config, w *mathx.Matrix, rows []int32, gs [][]float64, epoch int, matrix uint64, noiseSeed uint64) {
	cfg.K = 0
	eng := newEngine(nil, nil, nil, cfg, xrand.NewStream(noiseSeed))
	eng.slots = make([]slot, len(rows))
	for p, g := range gs {
		sl := &eng.slots[p]
		sl.fIn, sl.fOut = 1, 1
		sl.grads.GIn, sl.grads.VI = g, g
		sl.grads.Coef = []float64{1}
	}
	grp, views := &eng.groupIn, &eng.inViews
	if matrix == matWout {
		eng.outRows, grp, views = rows, &eng.groupOut, &eng.outViews
	} else {
		eng.inRows = rows
	}
	for _, r := range rows {
		*views = append(*views, w.Row(int(r)))
	}
	eng.groupStage(w.NumRows())
	eng.applyUpdate(w, grp, epoch, matrix)
}

func TestApplyUpdateNonZeroTouchesOnlyAccumulatedRows(t *testing.T) {
	cfg := smallConfig()
	cfg.Strategy = StrategyNonZero
	w := mathx.NewMatrix(10, cfg.Dim)
	orig := w.Clone()
	gvec := make([]float64, cfg.Dim)
	gvec[0] = 1
	applyWith(cfg, w, []int32{3}, [][]float64{gvec}, 0, matWin, 5)
	for r := 0; r < 10; r++ {
		changed := false
		for d := 0; d < cfg.Dim; d++ {
			if w.At(r, d) != orig.At(r, d) {
				changed = true
			}
		}
		if r == 3 && !changed {
			t.Error("accumulated row 3 not updated")
		}
		if r != 3 && changed {
			t.Errorf("non-zero strategy perturbed untouched row %d", r)
		}
	}
}

func TestApplyUpdateNaiveTouchesAllRows(t *testing.T) {
	cfg := smallConfig()
	cfg.Strategy = StrategyNaive
	w := mathx.NewMatrix(10, cfg.Dim)
	orig := w.Clone()
	applyWith(cfg, w, nil, nil, 0, matWin, 6)
	for r := 0; r < 10; r++ {
		changed := false
		for d := 0; d < cfg.Dim; d++ {
			if w.At(r, d) != orig.At(r, d) {
				changed = true
			}
		}
		if !changed {
			t.Errorf("naive strategy left row %d unperturbed", r)
		}
	}
}

func TestApplyUpdateNoiseScales(t *testing.T) {
	// Non-zero noise per coordinate has sd = η·C·σ (per-row sensitivity C);
	// naive has sd B times larger (worst-case sensitivity B·C). Verify
	// empirically on zero gradients.
	cfg := smallConfig()
	cfg.Dim = 2000 // plenty of coordinates for a tight estimate
	estimate := func(strategy Strategy) float64 {
		c := cfg
		c.Strategy = strategy
		w := mathx.NewMatrix(2, c.Dim)
		// Row 0 touched with a zero gradient.
		applyWith(c, w, []int32{0}, [][]float64{make([]float64, c.Dim)}, 0, matWin, 9)
		return mathx.StdDev(w.Row(0))
	}
	wantNonZero := cfg.LearningRate * cfg.Clip * cfg.Sigma
	gotNonZero := estimate(StrategyNonZero)
	if math.Abs(gotNonZero-wantNonZero)/wantNonZero > 0.1 {
		t.Errorf("non-zero noise sd = %g, want approx %g", gotNonZero, wantNonZero)
	}
	wantNaive := wantNonZero * float64(cfg.BatchSize)
	gotNaive := estimate(StrategyNaive)
	if math.Abs(gotNaive-wantNaive)/wantNaive > 0.1 {
		t.Errorf("naive noise sd = %g, want approx %g", gotNaive, wantNaive)
	}
}

// TestTrainNoiseCalibration checks the Eq. (6)/(9) noise scale on the
// running engine, not on one isolated update. Two one-epoch private runs
// at one seed differ only in the clip bound C. With C far above every
// gradient norm nothing is clipped, so both runs share their
// initialization, gradients and noise draws, and they differ by exactly
// the noise term η·σ·ΔC·z. Under the non-zero strategy only the rows the
// batch touched move (at most B Win rows and (K+1)·B Wout rows), with sd
// η·ΔC·σ; under the naive strategy every row moves, with B times that sd.
func TestTrainNoiseCalibration(t *testing.T) {
	g, err := datasets.Generate("power", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	base := DefaultConfig()
	base.Dim = 64
	base.MaxEpochs = 1
	base.Seed = 1
	const c1, c2 = 1e6, 2e6
	run := func(strategy Strategy, clip float64) *Result {
		cfg := base
		cfg.Strategy, cfg.Clip = strategy, clip
		res, err := TrainContext(context.Background(), g, proximity.NewDegree(g), cfg, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	b := base.BatchSize
	for _, tc := range []struct {
		strategy        Strategy
		scale           float64 // noise sd in units of η·ΔC·σ
		maxWin, maxWout int     // rows the update may move
	}{
		{StrategyNonZero, 1, b, (base.K + 1) * b},
		{StrategyNaive, float64(b), n, n},
	} {
		lo, hi := run(tc.strategy, c1), run(tc.strategy, c2)
		want := tc.scale * base.LearningRate * (c2 - c1) * base.Sigma
		for _, m := range []struct {
			name    string
			lo, hi  mathx.Mat
			maxRows int
		}{
			{"Win", lo.Model.Win, hi.Model.Win, tc.maxWin},
			{"Wout", lo.Model.Wout, hi.Model.Wout, tc.maxWout},
		} {
			var diffs []float64
			moved := 0
			wl, wh := mathx.Materialize(m.lo), mathx.Materialize(m.hi)
			for i := 0; i < n; i++ {
				rl, rh := wl.Row(i), wh.Row(i)
				same := true
				for d := range rl {
					same = same && rl[d] == rh[d]
				}
				if same {
					continue
				}
				moved++
				for d := range rl {
					diffs = append(diffs, rh[d]-rl[d])
				}
			}
			if moved == 0 || moved > m.maxRows {
				t.Errorf("%v %s: noise moved %d rows, want 1..%d (every other row bit-equal)",
					tc.strategy, m.name, moved, m.maxRows)
				continue
			}
			if tc.strategy == StrategyNaive && moved != n {
				t.Errorf("naive %s: noise moved %d of %d rows, want all", m.name, moved, n)
			}
			if sd := mathx.StdDev(diffs); math.Abs(sd/want-1) > 0.05 {
				t.Errorf("%v %s: noise sd over %d moved rows = %g, want %g within 5%%",
					tc.strategy, m.name, moved, sd, want)
			}
		}
	}
}

func TestClipJoint(t *testing.T) {
	rows := [][]float64{{3, 0}, {0, 4}} // joint norm 5
	clipJoint(rows, 1)
	var sq float64
	for _, r := range rows {
		sq += mathx.Norm2Sq(r)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-12 {
		t.Errorf("joint norm after clip = %g, want 1", math.Sqrt(sq))
	}
	// Direction preserved: ratio 3:4 across rows.
	if math.Abs(rows[0][0]/rows[1][1]-0.75) > 1e-12 {
		t.Errorf("clip distorted direction: %v", rows)
	}
	// Under threshold: untouched.
	small := [][]float64{{0.1, 0}, {0, 0.1}}
	clipJoint(small, 1)
	if small[0][0] != 0.1 {
		t.Error("clipJoint modified a small gradient")
	}
}

func TestTrainEmbeddingAccessor(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	cfg.MaxEpochs = 2
	res, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding() != res.Model.Win {
		t.Error("Embedding() should return Win")
	}
	if res.Embedding().Rows != g.NumNodes() || res.Embedding().Cols != cfg.Dim {
		t.Error("embedding shape wrong")
	}
}

func TestTrainNaiveStrategyRuns(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	cfg.Strategy = StrategyNaive
	cfg.MaxEpochs = 5
	res, err := Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 5 {
		t.Errorf("epochs = %d", res.Epochs)
	}
	for _, v := range res.Model.Win.(*mathx.Matrix).Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("naive training produced non-finite embeddings")
		}
	}
}
