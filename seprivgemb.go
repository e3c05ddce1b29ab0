package seprivgemb

import (
	"io"

	"seprivgemb/internal/core"
	"seprivgemb/internal/datasets"
	"seprivgemb/internal/dp"
	"seprivgemb/internal/eval"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

// Re-exported core types. Aliases keep one definition of each concept while
// giving external importers a single import path.
type (
	// Graph is an immutable undirected simple graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges into a Graph.
	GraphBuilder = graph.Builder
	// Edge is an undirected edge with U < V.
	Edge = graph.Edge
	// Matrix is a dense row-major float64 matrix; embeddings are matrices
	// with one row per node.
	Matrix = mathx.Matrix
	// Proximity is a node-proximity measure (Definition 4).
	Proximity = proximity.Proximity
	// Config holds SE-PrivGEmb hyperparameters (Algorithm 2). Its Workers
	// field parallelizes the per-epoch gradient stage; for a fixed Seed the
	// Result is bit-identical at every worker count.
	Config = core.Config
	// Result is a training outcome; Result.Embedding() is the private Win.
	Result = core.Result
	// Strategy selects the perturbation mechanism (naive vs non-zero).
	Strategy = core.Strategy
	// NegSampling selects the negative-sampling distribution Pn(v).
	NegSampling = core.NegSampling
	// LinkSplit is a link-prediction train/test split (Section VI-A).
	LinkSplit = eval.LinkSplit
	// Scorer scores candidate links.
	Scorer = eval.Scorer
	// Accountant tracks Rényi-DP over training epochs.
	Accountant = dp.Accountant
	// RNG is the deterministic random source used across the library.
	RNG = xrand.RNG
)

// Perturbation strategies (Section III-B vs IV-A).
const (
	StrategyNonZero = core.StrategyNonZero
	StrategyNaive   = core.StrategyNaive
)

// Negative-sampling designs (Section IV-B vs prior work).
const (
	NegUniform = core.NegUniform
	NegDegree  = core.NegDegree
)

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// LoadGraph reads a whitespace-separated edge list from a file, compacting
// node IDs and dropping self-loops and duplicates.
func LoadGraph(path string) (*Graph, error) { return graph.ReadEdgeListFile(path) }

// ParseGraph reads an edge list from r.
func ParseGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// SaveGraph writes g as an edge-list file.
func SaveGraph(path string, g *Graph) error { return graph.WriteEdgeListFile(path, g) }

// GenerateDataset simulates one of the paper's six benchmark datasets
// ("chameleon", "ppi", "power", "arxiv", "blogcatalog", "dblp") at the
// given node-count scale (<= 0 selects the dataset default).
func GenerateDataset(name string, scale float64, seed uint64) (*Graph, error) {
	return datasets.Generate(name, scale, seed)
}

// DatasetNames returns the six dataset names in the paper's order.
func DatasetNames() []string { return datasets.Names() }

// NewProximity constructs a proximity measure by name: "deepwalk" ("dw"),
// "degree" ("deg"), "common-neighbors" ("cn"), "preferential-attachment"
// ("pa"), "adamic-adar" ("aa"), "resource-allocation" ("ra"), "katz", or
// "pagerank" ("ppr").
func NewProximity(name string, g *Graph) (Proximity, error) {
	return proximity.ByName(name, g)
}

// DefaultConfig returns the paper's experimental settings: r=128, k=5,
// B=128, η=0.1, C=2, σ=5, ε=3.5, δ=1e-5, 200 epochs, non-zero perturbation.
func DefaultConfig() Config { return core.DefaultConfig() }

// StrucEqu is the structural-equivalence metric of Section VI-A: the
// Pearson correlation between adjacency-row distances and embedding
// distances over all node pairs.
func StrucEqu(g *Graph, emb *Matrix) float64 { return eval.StrucEqu(g, emb) }

// StrucEquWorkers is StrucEqu with the O(|V|²) pair scan sharded across
// `workers` goroutines; rows fill index-addressed slots, so the score is
// bit-identical to the serial scan at every worker count.
func StrucEquWorkers(g *Graph, emb *Matrix, workers int) float64 {
	return eval.StrucEquWorkers(g, emb, workers)
}

// StrucEquSampled estimates StrucEqu from a uniform sample of node pairs,
// for graphs too large for the exact O(|V|²) scan.
func StrucEquSampled(g *Graph, emb *Matrix, pairs int, rng *RNG) float64 {
	return eval.StrucEquSampled(g, emb, pairs, rng)
}

// SplitLinkPrediction removes testFrac of the edges as held-out positives
// and samples matching negatives (the paper uses testFrac = 0.1).
func SplitLinkPrediction(g *Graph, testFrac float64, rng *RNG) (*LinkSplit, error) {
	return eval.SplitLinkPrediction(g, testFrac, rng)
}

// LinkAUC scores the split's test links with the scorer and returns the
// area under the ROC curve.
func LinkAUC(split *LinkSplit, score Scorer) float64 { return eval.LinkAUC(split, score) }

// LinkAUCWorkers is LinkAUC with the scoring pass sharded across `workers`
// goroutines (bit-identical at every count). The scorer is called
// concurrently; every scorer in this package is a read-only function of an
// immutable embedding, which qualifies.
func LinkAUCWorkers(split *LinkSplit, score Scorer, workers int) float64 {
	return eval.LinkAUCWorkers(split, score, workers)
}

// AUC returns the ROC AUC of positive vs negative scores (Mann–Whitney U
// with ties counted half).
func AUC(pos, neg []float64) float64 { return eval.AUC(pos, neg) }

// EmbeddingScorer returns a link scorer over an embedding: the inner
// product of the endpoint vectors, the similarity the skip-gram objective
// optimizes.
func EmbeddingScorer(emb *Matrix) Scorer {
	return func(u, v int) float64 {
		return mathx.Dot(emb.Row(u), emb.Row(v))
	}
}

// NewAccountant returns a Rényi-DP accountant over the default order grid.
func NewAccountant() *Accountant { return dp.NewAccountant(nil) }

// CalibrateGaussianSigma returns the smallest Gaussian noise multiplier
// under which `steps` compositions satisfy (ε, δ)-DP.
func CalibrateGaussianSigma(eps, delta float64, steps int) float64 {
	return dp.CalibrateGaussianSigma(eps, delta, steps)
}
