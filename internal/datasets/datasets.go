// Package datasets provides synthetic stand-ins for the six evaluation
// datasets of Section VI-A. The real datasets cannot be fetched in this
// offline environment, so each is simulated by a seeded random-graph model
// matching the published node and edge counts and the qualitative topology
// class (see DESIGN.md §2, substitution 1). A scale factor shrinks the node
// count while preserving density, which is how the benchmark harness keeps
// DBLP-class graphs tractable.
package datasets

import (
	"fmt"
	"sort"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

// Spec describes one simulated dataset.
type Spec struct {
	Name  string
	Nodes int // |V| of the real dataset
	Edges int // |E| of the real dataset
	// Class is the topology family used to simulate it.
	Class string
	// DefaultScale is the node-count multiplier applied when callers pass
	// scale <= 0; it is 1 except for DBLP, whose full size exceeds the
	// memory budget of a 128-dimensional embedding.
	DefaultScale float64
}

// specs lists the paper's datasets with their published sizes.
var specs = map[string]Spec{
	"chameleon":   {Name: "chameleon", Nodes: 2277, Edges: 31421, Class: "scale-free (Barabási–Albert)", DefaultScale: 1},
	"ppi":         {Name: "ppi", Nodes: 3890, Edges: 76584, Class: "scale-free + triadic closure", DefaultScale: 1},
	"power":       {Name: "power", Nodes: 4941, Edges: 6594, Class: "quasi-planar grid", DefaultScale: 1},
	"arxiv":       {Name: "arxiv", Nodes: 5242, Edges: 14496, Class: "community (stochastic block model)", DefaultScale: 1},
	"blogcatalog": {Name: "blogcatalog", Nodes: 10312, Edges: 333983, Class: "dense scale-free", DefaultScale: 1},
	"dblp":        {Name: "dblp", Nodes: 2244021, Edges: 4354534, Class: "sparse scale-free", DefaultScale: 0.01},
}

// Names returns the dataset names in the order the paper lists them.
func Names() []string {
	return []string{"chameleon", "ppi", "power", "arxiv", "blogcatalog", "dblp"}
}

// Get returns the Spec for a dataset name.
func Get(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return Spec{}, fmt.Errorf("datasets: unknown dataset %q (known: %v)", name, known)
	}
	return s, nil
}

// Nodes returns how many nodes Generate simulates for the named dataset
// at the given scale (node-count multiplier; <= 0 selects the dataset's
// default), at least 16 — known without generating anything.
func Nodes(name string, scale float64) (int, error) {
	spec, err := Get(name)
	if err != nil {
		return 0, err
	}
	if scale <= 0 {
		scale = spec.DefaultScale
	}
	return max(16, int(float64(spec.Nodes)*scale)), nil
}

// Generate simulates the named dataset at the given scale (node-count
// multiplier; <= 0 selects the dataset's default) with a deterministic
// seed. The returned graph has Nodes(name, scale) nodes and approximately
// matches |E|/|V| of the original.
func Generate(name string, scale float64, seed uint64) (*graph.Graph, error) {
	n, err := Nodes(name, scale)
	if err != nil {
		return nil, err
	}
	spec := specs[name]
	meanDeg := 2 * float64(spec.Edges) / float64(spec.Nodes)
	rng := xrand.New(seed ^ hashName(name))
	switch name {
	case "chameleon":
		// Wiki article links: heavy-tailed. m ≈ |E|/|V| ≈ 13.8.
		return graph.BarabasiAlbert(n, attachm(meanDeg), rng), nil
	case "ppi":
		// Protein interactions: heavy-tailed with elevated clustering.
		// Triadic closure adds ~10% edges, so aim slightly below.
		m := attachm(meanDeg * 0.9)
		return graph.TriadicBA(n, m, 0.3, rng), nil
	case "power":
		// Western US grid: near-planar, mean degree ≈ 2.67.
		target := int(float64(spec.Edges) / float64(spec.Nodes) * float64(n))
		if target < n {
			target = n
		}
		return graph.PowerGridLike(n, target, rng), nil
	case "arxiv":
		// Collaboration communities: SBM with 80% in-community edges.
		return generateSBM(n, spec, rng), nil
	case "blogcatalog":
		// Blogger friendships: dense scale-free, mean degree ≈ 64.8.
		return graph.BarabasiAlbert(n, attachm(meanDeg), rng), nil
	case "dblp":
		// Scholarly graph: very sparse scale-free, mean degree ≈ 3.9.
		return graph.BarabasiAlbert(n, attachm(meanDeg), rng), nil
	default:
		return nil, fmt.Errorf("datasets: no generator for %q", name)
	}
}

// attachm converts a target mean degree into a Barabási–Albert attachment
// count m ≈ meanDeg/2 (each new node adds m edges), at least 1.
func attachm(meanDeg float64) int {
	m := int(meanDeg/2 + 0.5)
	if m < 1 {
		m = 1
	}
	return m
}

// generateSBM derives block-model probabilities that hit the spec's edge
// count at the scaled size with an 80/20 within/between split.
func generateSBM(n int, spec Spec, rng *xrand.RNG) *graph.Graph {
	blocks := n / 100
	if blocks < 2 {
		blocks = 2
	}
	targetEdges := float64(spec.Edges) / float64(spec.Nodes) * float64(n)
	per := n / blocks
	inPairs := float64(blocks) * float64(per) * float64(per-1) / 2
	totalPairs := float64(n) * float64(n-1) / 2
	outPairs := totalPairs - inPairs
	pIn := 0.8 * targetEdges / inPairs
	pOut := 0.2 * targetEdges / outPairs
	if pIn > 1 {
		pIn = 1
	}
	return graph.StochasticBlockModel(n, blocks, pIn, pOut, rng)
}

// hashName gives each dataset an independent seed stream so that, e.g.,
// chameleon seed 7 and power seed 7 do not share randomness.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
