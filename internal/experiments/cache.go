// Package experiments holds the dataset and proximity Memo that spec
// resolution reads, and ResultKey, the deduplication key of a training
// run. The paper's tables and figures are regenerated by cmd/experiments
// as sweeps over the service layer, which owns trained results.
package experiments

import (
	"sync"

	"seprivgemb/internal/datasets"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
)

// Memo is the graph-side cache: a sweep evaluates the same (dataset,
// scale, measure) combination in hundreds of cells (method × ε × seed),
// and a server sees the same dataset named by many requests. A Memo
// computes each artifact once and shares it:
//
//   - simulated dataset graphs, keyed by (name, scale, seed);
//   - materialized proximity matrices, keyed by (graph, measure) — built
//     with MaterializeParallel so even the first cell to need one gets the
//     sharded construction.
//
// Graphs are immutable and Sparse proximities are read-only after
// materialization, so sharing across goroutines is safe. Each key is
// computed exactly once (sync.Once per entry); concurrent requesters block
// on the winner rather than duplicating work. Entries are unbounded: their
// population is bounded by the datasets named, not by traffic. Trained
// results are not cached here — the service's job table owns them.
//
// Proximity entries are keyed by graph pointer and only created for graphs
// the Memo itself produced: transient graphs (e.g. per-seed link-prediction
// training splits) fall back to the direct lazy measure, whose one-shot
// weight fill builds only the rows it needs, each once — cheaper than
// materializing every row.
type Memo struct {
	mu     sync.Mutex
	graphs map[graphKey]*graphEntry
	prox   map[proxKey]*proxEntry
	known  map[*graph.Graph]bool
}

// ResultKey identifies a training run up to bit-identical output: the
// training method, the exact graph (fingerprint), the structure preference,
// and the result-shaping config fields (core.Config.Hash, which excludes
// Workers). Two submissions with equal keys would train the very same
// embedding, so the service layer runs one and hands the result to both.
//
// Method is part of the key because two different trainers over one
// (graph, proximity, config) triple produce different embeddings — without
// it, submitting "gap" after "sepriv" on the same spec would be served the
// sepriv result. Empty Method means the default method (methods.Default);
// callers should canonicalize before keying so "" and "sepriv" coincide.
type ResultKey struct {
	Method    string // canonical method name ("" ≡ the default method)
	Graph     uint64 // graph.Fingerprint of the training graph
	Proximity string // Proximity.Name of the structure preference
	Config    uint64 // core.Config.Hash of the hyperparameters
}

type graphKey struct {
	name  string
	scale float64
	seed  uint64
}

type proxKey struct {
	g       *graph.Graph
	measure string
}

type graphEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

type proxEntry struct {
	once sync.Once
	p    *proximity.Sparse
	err  error
}

// NewMemo returns an empty cache.
func NewMemo() *Memo {
	return &Memo{
		graphs: make(map[graphKey]*graphEntry),
		prox:   make(map[proxKey]*proxEntry),
		known:  make(map[*graph.Graph]bool),
	}
}

// Dataset returns the simulated benchmark dataset at (name, scale, seed),
// generated once per Memo and shared thereafter — the serving layer's
// resolution path for dataset-sourced JobSpecs. Scale <= 0 is canonicalized
// to the dataset default BEFORE keying, so "default scale" and its explicit
// value are one cache entry.
func (m *Memo) Dataset(name string, scale float64, seed uint64) (*graph.Graph, error) {
	sp, err := datasets.Get(name)
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = sp.DefaultScale
	}
	key := graphKey{name, scale, seed}
	m.mu.Lock()
	e, ok := m.graphs[key]
	if !ok {
		e = &graphEntry{}
		m.graphs[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.g, e.err = datasets.Generate(name, scale, seed)
		if e.err == nil {
			m.mu.Lock()
			m.known[e.g] = true
			m.mu.Unlock()
		}
	})
	return e.g, e.err
}

// Proximity resolves measure over g through the Memo: Memo-managed graphs
// get a materialized, cached matrix (built across `workers` goroutines);
// foreign graphs get the direct lazy measure, uncached.
func (m *Memo) Proximity(g *graph.Graph, measure string, workers int) (proximity.Proximity, error) {
	m.mu.Lock()
	if !m.known[g] {
		m.mu.Unlock()
		return proximity.ByName(measure, g)
	}
	key := proxKey{g, measure}
	e, ok := m.prox[key]
	if !ok {
		e = &proxEntry{}
		m.prox[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		p, err := proximity.ByName(measure, g)
		if err != nil {
			e.err = err
			return
		}
		e.p = proximity.MaterializeParallel(p, workers)
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.p, nil
}

// GraphCacheLen reports how many simulated graphs the Memo retains —
// observability for the serving layer's "rejected requests must not grow
// the cache" invariant (and its test).
func (m *Memo) GraphCacheLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.graphs)
}
