package baselines

import (
	"math"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

func TestRandomFeaturesUnitRows(t *testing.T) {
	x := RandomFeatures(50, 16, xrand.New(1))
	for i := 0; i < x.Rows; i++ {
		if n := mathx.Norm2(x.Row(i)); math.Abs(n-1) > 1e-9 {
			t.Fatalf("row %d norm = %g, want 1", i, n)
		}
	}
}

func TestProjectAdjacencyShape(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, xrand.New(2))
	x := ProjectAdjacency(g, 24, xrand.New(3))
	if x.Rows != 100 || x.Cols != 24 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	for i := 0; i < x.Rows; i++ {
		n := mathx.Norm2(x.Row(i))
		if g.Degree(i) > 0 && math.Abs(n-1) > 1e-9 {
			t.Fatalf("row %d norm = %g", i, n)
		}
	}
}

func TestProjectAdjacencySimilarNodesSimilarFeatures(t *testing.T) {
	// Two nodes with identical neighborhoods get identical projections.
	b := graph.NewBuilder(5)
	_ = b.AddEdge(0, 2)
	_ = b.AddEdge(0, 3)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(1, 3)
	_ = b.AddEdge(2, 4)
	g := b.Build()
	x := ProjectAdjacency(g, 16, xrand.New(4))
	if d := mathx.EuclideanDistance(x.Row(0), x.Row(1)); d > 1e-9 {
		t.Errorf("structurally equivalent nodes differ by %g", d)
	}
}

func TestAggregate(t *testing.T) {
	// Path 0-1-2: aggregate of unit features.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	g := b.Build()
	x := mathx.NewMatrix(3, 2)
	x.Set(0, 0, 1)
	x.Set(1, 1, 1)
	x.Set(2, 0, 1)
	agg := Aggregate(g, x, false)
	// Node 1 aggregates rows 0 and 2 = (2, 0) -> normalized (1, 0).
	if agg.At(1, 0) != 1 || agg.At(1, 1) != 0 {
		t.Errorf("agg row 1 = %v", agg.Row(1))
	}
	// Node 0 aggregates row 1 = (0, 1).
	if agg.At(0, 0) != 0 || agg.At(0, 1) != 1 {
		t.Errorf("agg row 0 = %v", agg.Row(0))
	}
	withSelf := Aggregate(g, x, true)
	// Node 0 with self-loop: (1, 1)/√2.
	want := 1 / math.Sqrt2
	if math.Abs(withSelf.At(0, 0)-want) > 1e-12 {
		t.Errorf("self-loop agg row 0 = %v", withSelf.Row(0))
	}
}

func TestNormalizeRowsLeavesZeroRows(t *testing.T) {
	x := mathx.NewMatrix(2, 3)
	x.Set(0, 0, 4)
	NormalizeRows(x)
	if x.At(0, 0) != 1 {
		t.Errorf("row 0 not normalized: %v", x.Row(0))
	}
	for _, v := range x.Row(1) {
		if v != 0 {
			t.Error("zero row was modified")
		}
	}
}

func TestAddRowNoise(t *testing.T) {
	x := mathx.NewMatrix(100, 100)
	AddRowNoise(x, 2, xrand.NewStream(5))
	sd := mathx.StdDev(x.Data)
	if math.Abs(sd-2) > 0.1 {
		t.Errorf("noise sd = %g, want 2", sd)
	}
	y := mathx.NewMatrix(2, 2)
	AddRowNoise(y, 0, xrand.NewStream(6))
	if mathx.Norm2(y.Data) != 0 {
		t.Error("zero-sd noise modified the matrix")
	}
	// Counter-addressed draws: a fresh stream with the same seed reproduces
	// the identical noise field.
	z := mathx.NewMatrix(100, 100)
	AddRowNoise(z, 2, xrand.NewStream(5))
	for i := range x.Data {
		if x.Data[i] != z.Data[i] {
			t.Fatal("AddRowNoise not deterministic for a fixed stream seed")
		}
	}
}

// TestValidateRejectsNonFinite: NaN and ±Inf in every float field are
// validation errors; NaN used to pass the sign checks.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config) *float64{
		"Epsilon":      func(c *Config) *float64 { return &c.Epsilon },
		"Delta":        func(c *Config) *float64 { return &c.Delta },
		"Sigma":        func(c *Config) *float64 { return &c.Sigma },
		"LearningRate": func(c *Config) *float64 { return &c.LearningRate },
		"Clip":         func(c *Config) *float64 { return &c.Clip },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := testConfig()
			*field(&cfg) = v
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %g accepted", name, v)
			}
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// testConfig is the paper's shared evaluation setting (r=128, σ=5,
// δ=1e-5) with baseline-typical optimization values; tests narrow it.
func testConfig() Config {
	return Config{
		Dim:          128,
		Epsilon:      3.5,
		Delta:        1e-5,
		Sigma:        5,
		Epochs:       200,
		BatchSize:    64,
		LearningRate: 0.05,
		Clip:         1,
	}
}
