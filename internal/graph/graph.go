// Package graph implements the undirected simple-graph engine the paper's
// algorithms operate on: a compact CSR adjacency representation with an
// explicit edge list, plus builders, text I/O, traversals, and the random
// graph generators used to simulate the evaluation datasets.
//
// Graphs are undirected and unweighted (Section II-A); self-loops and
// duplicate edges are rejected or removed by the builders, matching the
// paper's preprocessing ("all datasets are preprocessed to remove
// self-loops").
package graph

import (
	"fmt"
	"sort"
	"sync"

	"seprivgemb/internal/mathx"
)

// Edge is an undirected edge between nodes U and V, stored with U < V.
type Edge struct {
	U, V int32
}

// Graph is an immutable undirected simple graph in CSR form.
//
// Node IDs are dense integers in [0, N). Each undirected edge appears once
// in Edges (with U < V) and twice in the CSR arrays (once per endpoint).
type Graph struct {
	n      int
	edges  []Edge
	offset []int32 // len n+1
	adj    []int32 // len 2*|E|, neighbors sorted ascending per node

	// fp caches Fingerprint (the graph is immutable; Graphs are always
	// handled by pointer, so the Once is never copied).
	fpOnce sync.Once
	fp     uint64
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E| (undirected edges counted once).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the graph's edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Fingerprint returns a 64-bit FNV-1a hash over |V| and the sorted edge
// list — a cheap identity for a graph's exact structure. Two graphs share a
// fingerprint iff they have the same node count and edge set (modulo hash
// collisions), independent of how they were constructed. It keys the
// service layer's job deduplication and guards checkpoint resumption
// against a mismatched graph. The graph is immutable, so the O(|E|) scan
// runs once and is cached for the serving paths that fingerprint on every
// submission and checkpoint.
func (g *Graph) Fingerprint() uint64 {
	g.fpOnce.Do(func() {
		h := mathx.NewFNV64()
		h.Word(uint64(g.n))
		for _, e := range g.edges {
			h.Word(uint64(uint32(e.U))<<32 | uint64(uint32(e.V)))
		}
		g.fp = h.Sum()
	})
	return g.fp
}

// Neighbors returns the sorted neighbor list of node u.
// The caller must not modify it.
func (g *Graph) Neighbors(u int) []int32 {
	return g.adj[g.offset[u]:g.offset[u+1]]
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int {
	return int(g.offset[u+1] - g.offset[u])
}

// HasEdge reports whether the undirected edge (u, v) exists, by binary
// search over the smaller adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// Degrees returns a freshly allocated slice of all node degrees.
func (g *Graph) Degrees() []int {
	d := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		d[u] = g.Degree(u)
	}
	return d
}

// MaxDegree returns the largest degree in the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// MeanDegree returns 2|E|/|V|, or 0 for an empty graph.
func (g *Graph) MeanDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.n)
}

// CommonNeighbors returns |N(u) ∩ N(v)| by merging the two sorted
// adjacency lists.
func (g *Graph) CommonNeighbors(u, v int) int {
	return int(SumCommon(g.Neighbors(u), g.Neighbors(v), func(int32) float64 { return 1 }, 0, 0))
}

// SumCommon merges the sorted lists a and b and adds term(w) for every w
// in both, in ascending w. A nonzero extra is added once more, in the
// place a common element at would take in that order: before the first
// common w > at, or last. DeepWalk's adjacency ½ rides there, where its
// row build adds it. The sum's bits depend on that order.
func SumCommon(a, b []int32, term func(w int32) float64, extra float64, at int32) float64 {
	var s float64
	pending := extra != 0
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			if pending && a[x] > at {
				s += extra
				pending = false
			}
			s += term(a[x])
			x++
			y++
		}
	}
	if pending {
		s += extra
	}
	return s
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are silently dropped, mirroring the dataset
// preprocessing described in Section VI-A.
type Builder struct {
	n     int
	edges map[Edge]struct{}
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBuilder(%d) negative size", n))
	}
	return &Builder{n: n, edges: make(map[Edge]struct{})}
}

// AddEdge records the undirected edge (u, v). Self-loops and out-of-range
// endpoints return an error; duplicates are ignored.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("graph: edge (%d, %d) out of range [0, %d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d rejected", u)
	}
	if u > v {
		u, v = v, u
	}
	b.edges[Edge{int32(u), int32(v)}] = struct{}{}
	return nil
}

// HasEdge reports whether the builder already contains edge (u, v).
func (b *Builder) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := b.edges[Edge{int32(u), int32(v)}]
	return ok
}

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	edges := make([]Edge, 0, len(b.edges))
	for e := range b.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return FromEdges(b.n, edges)
}

// FromEdges constructs a Graph from a deduplicated edge list with U < V for
// every edge. It panics on malformed input; use Builder for untrusted data.
func FromEdges(n int, edges []Edge) *Graph {
	g := &Graph{
		n:      n,
		edges:  edges,
		offset: make([]int32, n+1),
	}
	deg := make([]int32, n)
	for _, e := range edges {
		if e.U >= e.V || e.V >= int32(n) || e.U < 0 {
			panic(fmt.Sprintf("graph: malformed edge (%d, %d) for n=%d", e.U, e.V, n))
		}
		deg[e.U]++
		deg[e.V]++
	}
	for u := 0; u < n; u++ {
		g.offset[u+1] = g.offset[u] + deg[u]
	}
	g.adj = make([]int32, 2*len(edges))
	cursor := make([]int32, n)
	copy(cursor, g.offset[:n])
	for _, e := range edges {
		g.adj[cursor[e.U]] = e.V
		cursor[e.U]++
		g.adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	for u := 0; u < n; u++ {
		nb := g.adj[g.offset[u]:g.offset[u+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return g
}

// Subgraph returns the induced graph on keep (a set of node IDs), with
// nodes relabeled densely in the iteration order of the sorted keep slice.
// The second return value maps old ID -> new ID (-1 when dropped).
func (g *Graph) Subgraph(keep []int) (*Graph, []int) {
	sorted := append([]int(nil), keep...)
	sort.Ints(sorted)
	remap := make([]int, g.n)
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range sorted {
		remap[old] = newID
	}
	b := NewBuilder(len(sorted))
	for _, e := range g.edges {
		nu, nv := remap[e.U], remap[e.V]
		if nu >= 0 && nv >= 0 {
			_ = b.AddEdge(nu, nv)
		}
	}
	return b.Build(), remap
}

// ConnectedComponents returns the component ID of every node and the number
// of components, via iterative BFS.
func (g *Graph) ConnectedComponents() ([]int, int) {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(int(u)) {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp, next
}

// RemoveEdges returns a new graph with the given edges deleted. Edges not
// present are ignored. Used by the link-prediction split to carve out the
// test set.
func (g *Graph) RemoveEdges(remove []Edge) *Graph {
	drop := make(map[Edge]struct{}, len(remove))
	for _, e := range remove {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		drop[e] = struct{}{}
	}
	kept := make([]Edge, 0, len(g.edges))
	for _, e := range g.edges {
		if _, gone := drop[e]; !gone {
			kept = append(kept, e)
		}
	}
	return FromEdges(g.n, kept)
}
