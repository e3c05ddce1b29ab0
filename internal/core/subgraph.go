// Package core implements SE-PrivGEmb, the paper's primary contribution:
// differentially private, structure-preference-enabled graph embedding
// generation over the skip-gram model.
//
// It contains Algorithm 1 (disjoint subgraph generation: one positive edge
// plus its k negative samples per subgraph), Algorithm 2 (the private
// training loop with RDP accounting and the δ̂ ≥ δ stopping rule), the two
// perturbation strategies of Section III-B/IV-A (naive Eq. (6) and non-zero
// Eq. (9)), and the non-private SE-GEmb counterpart used as a utility
// ceiling in the paper's figures.
package core

import (
	"fmt"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/panicx"
	"seprivgemb/internal/xrand"
)

// NegSampling selects the negative-sampling distribution Pn(v).
type NegSampling int

const (
	// NegUniform is the paper's design (Section IV-B): candidates are drawn
	// uniformly from V and rejected while (v_i, v_n) ∈ E, realizing the
	// constant per-node probability that Theorem 3 requires. This is
	// Algorithm 1 lines 5–10 verbatim.
	NegUniform NegSampling = iota
	// NegDegree is the prior-work distribution Pn(v) ∝ d_v (Eq. (14)),
	// whose optimum Eq. (15) does not preserve exact proximities; kept for
	// the negative-sampling ablation.
	NegDegree
)

// String implements fmt.Stringer.
func (n NegSampling) String() string {
	switch n {
	case NegUniform:
		return "uniform"
	case NegDegree:
		return "degree"
	default:
		return fmt.Sprintf("NegSampling(%d)", int(n))
	}
}

// Subgraph is one element of GS from Algorithm 1: the positive edge
// (I, J) together with the k negative partners of I.
type Subgraph struct {
	I, J int32
	Negs []int32
}

// GenerateSubgraphs implements Algorithm 1: it divides g into |E| disjoint
// subgraphs, one per edge, each holding the edge and k negative samples for
// its first endpoint. Negatives are resampled until (v_i, v_n) ∉ E; the
// self pair is additionally excluded (absent self-loops make v_n = v_i
// technically admissible under the pseudocode, but it is never a useful
// negative). Sampling is capped: after maxTries rejections the candidate is
// accepted with only the self-exclusion, which can only occur for nodes
// adjacent to almost every other node.
func GenerateSubgraphs(g *graph.Graph, k int, ns NegSampling, rng *xrand.RNG) ([]Subgraph, error) {
	return GenerateSubgraphsWorkers(g, k, ns, rng, 1)
}

// GenerateSubgraphsWorkers is GenerateSubgraphs sharded across `workers`
// goroutines (panicx.Blocks). Each edge's randomness — orientation coin
// plus negative sampling — comes from a sequential RNG seeded off a
// counter stream at the edge's index (xrand contract pattern 3), so the
// result is bit-identical at every worker count and under any schedule;
// the parent rng is consumed exactly once (for the stream root)
// regardless of workers.
//
// It runs in two passes. The first draws each edge's coin, in blocks of
// edges. The edges are then grouped by their center i with a stable
// counting sort, and the second pass runs in blocks of centers: each
// center marks i and N(i) once in its worker's mark array, and each of
// its edges re-seeds its RNG, replays the coin, and rejects a candidate
// by its mark instead of an adjacency search.
func GenerateSubgraphsWorkers(g *graph.Graph, k int, ns NegSampling, rng *xrand.RNG, workers int) ([]Subgraph, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: negative sampling number k=%d must be >= 1", k)
	}
	n := g.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("core: graph with %d nodes cannot be sampled", n)
	}
	var degreeAlias *xrand.Alias
	if ns == NegDegree {
		w := make([]float64, n)
		for u := 0; u < n; u++ {
			w[u] = float64(g.Degree(u))
		}
		var err error
		degreeAlias, err = xrand.NewAlias(w)
		if err != nil {
			return nil, fmt.Errorf("core: degree negative sampling: %w", err)
		}
	}
	const maxTries = 256
	st := xrand.NewStream(rng.Uint64())
	// orient re-seeds r as edge ei's RNG and draws its coin: the undirected
	// edge is oriented uniformly at random so that center updates (which
	// Algorithm 1 ties to the first endpoint) spread over both endpoints
	// rather than favoring low node IDs.
	orient := func(r *xrand.RNG, ei int) bool {
		r.Reseed(st.Derive(uint64(ei)).Uint64At(0))
		return r.Float64() < 0.5
	}
	edges := g.Edges()
	subs := make([]Subgraph, len(edges))
	// One backing array for all negative lists: |E|·k int32s, sliced per
	// edge — disjoint write targets for the workers, one allocation total.
	negs := make([]int32, len(edges)*k)
	panicx.Blocks(len(edges), workers, edgeBlock, func(_, lo, hi int) {
		var erng xrand.RNG // one reseedable RNG per block, not per edge
		for ei := lo; ei < hi; ei++ {
			i, j := edges[ei].U, edges[ei].V
			if orient(&erng, ei) {
				i, j = j, i
			}
			subs[ei] = Subgraph{I: i, J: j, Negs: negs[ei*k : ei*k : (ei+1)*k]}
		}
	})
	// byCenter[start[i]:start[i+1]] lists center i's edges in edge order.
	start := make([]int, n+1)
	for _, s := range subs {
		start[s.I+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	byCenter := make([]int32, len(edges))
	for ei, s := range subs { // start[i] is i's cursor until the shift
		byCenter[start[s.I]] = int32(ei)
		start[s.I]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	marks := make([][]bool, max(workers, 1))
	panicx.Blocks(n, workers, centerBlock, func(w, lo, hi int) {
		if marks[w] == nil {
			marks[w] = make([]bool, n)
		}
		mark := marks[w] // i and N(i) while center i runs, else all false
		var erng xrand.RNG
		for i := lo; i < hi; i++ {
			es := byCenter[start[i]:start[i+1]]
			if len(es) == 0 {
				continue
			}
			nb := g.Neighbors(i)
			mark[i] = true
			for _, v := range nb {
				mark[v] = true
			}
			for _, ei := range es {
				orient(&erng, int(ei)) // the negatives follow the coin in the edge's stream
				s := &subs[ei]
				for t := 0; t < k; t++ {
					var vn int
					ok := false
					for tries := 0; tries < maxTries; tries++ {
						if degreeAlias != nil {
							vn = degreeAlias.Sample(&erng)
						} else {
							vn = erng.Intn(n)
						}
						if !mark[vn] {
							ok = true
							break
						}
					}
					if !ok {
						// Near-complete neighborhood: fall back to any non-self node.
						for vn == i {
							vn = erng.Intn(n)
						}
					}
					s.Negs = append(s.Negs, int32(vn))
				}
			}
			mark[i] = false
			for _, v := range nb {
				mark[v] = false
			}
		}
	})
	return subs, nil
}

// edgeBlock is the orientation pass's work-grant size in edges: each edge
// is one re-seed and one draw, so a grant batches many edges per cursor
// update.
const edgeBlock = 256

// centerBlock is the sampling pass's work-grant size in centers; a
// center's cost is its oriented edges times K rejection-sampled
// negatives, so hubs make grants uneven and small grants keep the pool
// busy to the last block.
const centerBlock = 32
