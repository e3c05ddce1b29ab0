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
	"sync"
	"sync/atomic"

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

// parallelBlocks runs fn over [0, n) in blocks of `block` indices handed
// out off an atomic cursor to `workers` goroutines. Dynamic blocks rather
// than contiguous shards, because row costs are heavily skewed on
// power-law graphs (hub rows of Katz/PageRank push far larger frontiers),
// and small grants keep the pool busy to the last row. With one worker
// (or n <= block) fn runs once, inline, over the whole range. A panic in
// fn on a pool goroutine is re-raised on the caller's goroutine once the
// pool has stopped, where a recover can reach it, as a *panicx.Error that
// keeps the pool goroutine's stack.
func parallelBlocks(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n <= block {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	workers = min(workers, (n+block-1)/block)
	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicx.Error]
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, panicx.Recovered(r))
					next.Store(int64(n)) // the other workers stop at their next grant
				}
			}()
			for {
				lo := int(next.Add(block)) - block
				if lo >= n {
					return
				}
				fn(lo, min(lo+block, n))
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// block is parallelBlocks' work-grant size.
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
// For the row-building measures (Katz, PageRank) the pairs are grouped by
// source with a stable counting sort and each source's row is built once,
// so the fill costs one row build per distinct source instead of one per
// pair; every other measure is evaluated with At per pair. Either way the
// weights are exactly At's — a grouped weight is the entry of the very
// row At would have built, read from its dense values (denseBuild) — and
// each lands in its own pair-index slot, so the slice is bit-identical to
// the serial per-pair pass at any worker count.
// Row and At must be safe for concurrent use (true for every measure in
// this package, and required of custom measures handed here).
func PairWeights(p Proximity, pairs []Pair, workers int) []float64 {
	w := make([]float64, len(pairs))
	if _, ok := p.(rowBuilder); !ok {
		parallelBlocks(len(pairs), workers, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				w[k] = p.At(int(pairs[k].I), int(pairs[k].J))
			}
		})
		return w
	}
	// bySource[start[i]:start[i+1]] lists the indices of source i's pairs.
	n := p.NumNodes()
	start := make([]int, n+1)
	for _, pr := range pairs {
		start[pr.I+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	bySource := make([]int, len(pairs))
	fill := append([]int(nil), start[:n]...)
	for k, pr := range pairs {
		bySource[fill[pr.I]] = k
		fill[pr.I]++
	}
	build, pool := denseBuild(p)
	parallelBlocks(n, workers, func(lo, hi int) {
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
