// Package proximity implements the node-proximity measures of Definition 4:
// functions p_ij = g(N(vi), N(vj), G) quantifying structural closeness.
// Training consumes a proximity in one way: as the per-pair loss weight
// p_ij of Eq. (5), filled by PairWeights. The paper's other two uses —
// min(P) = min{p_ij | p_ij > 0} in the Theorem 3 optimum and the row sums
// Σ_j p_ij of the negative-sampling analysis — are analysis, not code:
// they justify uniform negative sampling and need no value at run time.
//
// Measures are exposed behind the Proximity interface with lazily computed
// sparse rows, so that O(|V|²) matrices never have to be materialized for
// large graphs.
package proximity

import (
	"sort"

	"seprivgemb/internal/panicx"
)

// Entry is one positive entry of a sparse proximity row.
type Entry struct {
	J int32
	P float64
}

// Proximity is a node-proximity measure over a fixed graph.
//
// Row(i) returns the positive entries of row i in ascending column order,
// excluding the diagonal (self-proximity is never used: training pairs are
// edges of a simple graph). At(i, j) returns p_ij, zero when absent.
type Proximity interface {
	Name() string
	NumNodes() int
	Row(i int) []Entry
	At(i, j int) float64
}

// block is the fill pool's work-grant size (panicx.Blocks).
const block = 32

// Pair is one oriented node pair (I, J) whose proximity p_IJ is wanted.
type Pair struct {
	I, J int32
}

// rowBuilder marks the measures whose At(i, j) is rowAt(Row(i), j): each
// call builds the whole of row i (Katz's frontier expansion, PageRank's
// forward push) to read one entry of it.
type rowBuilder interface {
	buildsRows()
}

// PairWeights evaluates p on every pair, in pair order: the structure-
// preference fill, the p_ij factors of the Eq. (5) objective. Zero-weight
// pairs are kept (their loss contribution is zero, exactly as the
// objective dictates).
//
// A *DeepWalk, *CommonNeighbors, *AdamicAdar or *ResourceAllocation sums
// a per-node term over the pair's common neighbors, and fills its own
// way (twoHop.fill): each pair goes to its endpoint of higher degree,
// which marks its neighbors once for all of its pairs, and each pair
// scans the other endpoint's list against the marks. A *Katz whose walk
// counts up to length L are exact float64 integers (below 2^53) is
// symmetric bit for bit, and fills its own way too: each pair is served
// by one endpoint of a greedy vertex cover of the pairs, which pushes
// half the levels and pulls the rest only near the columns it serves
// (Katz.fill). Otherwise, for the row-building measures (Katz, PageRank)
// the pairs are grouped by source with a stable counting sort and each
// source's row is built once, so the fill costs one row build per
// distinct source instead of one per pair; every other measure
// (preferential attachment, degree, custom measures) is evaluated with
// At per pair. Every path's weights are exactly At's — a two-hop weight
// adds At's terms in At's order, a grouped weight is the entry of the
// very row At would have built, read from its dense values (denseBuild)
// — and each lands in its own pair-index slot, so the slice is
// bit-identical to the serial per-pair pass at any worker count.
// Row and At must be safe for concurrent use (true for every measure in
// this package, and required of custom measures handed here).
func PairWeights(p Proximity, pairs []Pair, workers int) []float64 {
	w := make([]float64, len(pairs))
	if t, ok := twoHopOf(p); ok {
		t.fill(pairs, w, workers)
		return w
	}
	if k, ok := p.(*Katz); ok && k.countsExact() {
		k.fill(pairs, w, workers)
		return w
	}
	if _, ok := p.(rowBuilder); !ok {
		panicx.Blocks(len(pairs), workers, block, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				w[k] = p.At(int(pairs[k].I), int(pairs[k].J))
			}
		})
		return w
	}
	n := p.NumNodes()
	start, bySource := groupPairs(pairs, n, func(pr Pair) int32 { return pr.I })
	build, pool := denseBuild(p)
	panicx.Blocks(n, workers, block, func(_, lo, hi int) {
		var s *rowScratch
		if build != nil {
			s = pool.get()
			defer pool.put(s)
		}
		for i := lo; i < hi; i++ {
			ks := bySource[start[i]:start[i+1]]
			if len(ks) == 0 {
				continue
			}
			if build == nil {
				row := p.Row(i)
				for _, k := range ks {
					w[k] = rowAt(row, int(pairs[k].J))
				}
				continue
			}
			vals := build(s, i)
			for _, k := range ks {
				w[k] = entry(vals, i, int(pairs[k].J))
			}
			s.reset(vals)
		}
	})
	return w
}

// groupPairs groups the pair indices by node with a stable counting
// sort: byNode[start[v]:start[v+1]] lists, in pair order, the pairs that
// owner hands to node v. A pair whose owner is −1 is left out.
func groupPairs(pairs []Pair, n int, owner func(Pair) int32) (start, byNode []int) {
	owners := make([]int32, len(pairs))
	start = make([]int, n+1)
	for x, pr := range pairs {
		owners[x] = owner(pr)
		if o := owners[x]; o >= 0 {
			start[o+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	byNode = make([]int, start[n])
	for x, o := range owners { // start[o] is o's cursor until the shift
		if o >= 0 {
			byNode[start[o]] = x
			start[o]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return start, byNode
}

// denseBuild returns the dense row build of this package's row-building
// measures and the scratch pool it runs in, so PairWeights reads each
// paired column straight from the build's values — no sorted []Entry is
// built, allocated and binary-searched — through the same build Row
// collects from. It returns nil for any other measure, including a type
// that embeds Katz or PageRank: such a wrapper may override Row, and its
// Row stays the source of truth.
func denseBuild(p Proximity) (func(*rowScratch, int) []float64, *rowPool) {
	switch q := p.(type) {
	case *Katz:
		return q.build, &q.scratch
	case *PageRank:
		return q.build, &q.scratch
	}
	return nil, nil
}

// rowAt searches a sorted sparse row for column j.
func rowAt(row []Entry, j int) float64 {
	k := sort.Search(len(row), func(k int) bool { return row[k].J >= int32(j) })
	if k < len(row) && row[k].J == int32(j) {
		return row[k].P
	}
	return 0
}

// sortRow sorts a sparse row by column and drops non-positive entries.
func sortRow(row []Entry) []Entry {
	out := row[:0]
	for _, e := range row {
		if e.P > 0 {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].J < out[b].J })
	return out
}

// Sparse is a fully materialized proximity matrix, for tests: the
// reference the lazy measures are checked against. Training never builds
// one; its weight fill reads the lazy measure (PairWeights).
type Sparse struct {
	name string
	rows [][]Entry
}

// Materialize evaluates every row of p into a Sparse copy.
func Materialize(p Proximity) *Sparse {
	s := &Sparse{name: p.Name(), rows: make([][]Entry, p.NumNodes())}
	for i := range s.rows {
		s.rows[i] = append([]Entry(nil), p.Row(i)...)
	}
	return s
}

// NewSparse builds a Sparse measure directly from rows (testing helper).
// Rows are copied, sorted, and filtered to positive entries.
func NewSparse(name string, rows [][]Entry) *Sparse {
	s := &Sparse{name: name, rows: make([][]Entry, len(rows))}
	for i, r := range rows {
		s.rows[i] = sortRow(append([]Entry(nil), r...))
	}
	return s
}

// Name implements Proximity.
func (s *Sparse) Name() string { return s.name }

// NumNodes implements Proximity.
func (s *Sparse) NumNodes() int { return len(s.rows) }

// Row implements Proximity.
func (s *Sparse) Row(i int) []Entry { return s.rows[i] }

// At implements Proximity.
func (s *Sparse) At(i, j int) float64 { return rowAt(s.rows[i], j) }
