// Package experiments holds the dataset Memo that spec resolution reads,
// and ResultKey, the deduplication key of a training run. The paper's
// tables and figures are regenerated by cmd/experiments as sweeps over the
// service layer, which owns trained results.
package experiments

import (
	"sync"

	"seprivgemb/internal/datasets"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
)

// Memo is the dataset cache: a sweep evaluates the same (dataset, scale)
// combination in hundreds of cells (method × ε × seed), and a server sees
// the same dataset named by many requests. A Memo generates each
// simulated dataset graph, keyed by (name, scale, seed), once and shares
// it.
//
// Graphs are immutable, so sharing across goroutines is safe. Each key is
// computed once while it stays cached (sync.Once per entry); concurrent
// requesters block on the winner rather than duplicating work. The seed
// comes from the request, so the Memo keeps at most memoGraphs entries
// and evicts the least recently requested one beyond that; a generation
// still in flight finishes for its waiters even if its entry is evicted.
// Proximity measures are not cached: a job's weight fill builds from the
// lazy measure only the rows its sampled pairs need. Trained results are
// not cached here either — the service's job table owns them.
type Memo struct {
	mu     sync.Mutex
	graphs map[graphKey]*graphEntry
	clock  uint64 // bumped by every Dataset call, stamped on its entry
}

// memoGraphs bounds the graphs a Memo retains.
const memoGraphs = 16

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

type graphEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
	used uint64 // the Memo's clock at the entry's last request
}

// NewMemo returns an empty cache.
func NewMemo() *Memo {
	return &Memo{graphs: make(map[graphKey]*graphEntry)}
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
	m.clock++
	e.used = m.clock
	if len(m.graphs) > memoGraphs {
		m.evictLocked()
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.g, e.err = datasets.Generate(name, scale, seed)
	})
	return e.g, e.err
}

// evictLocked drops the least recently requested entry. The caller holds
// m.mu.
func (m *Memo) evictLocked() {
	var oldest graphKey
	oldestUsed := m.clock
	for k, e := range m.graphs {
		if e.used < oldestUsed {
			oldest, oldestUsed = k, e.used
		}
	}
	delete(m.graphs, oldest)
}

// Proximity returns the lazy measure over g; the Memo keeps no proximity
// state and workers is unused.
//
// Deprecated: call proximity.ByName.
func (m *Memo) Proximity(g *graph.Graph, measure string, workers int) (proximity.Proximity, error) {
	return proximity.ByName(measure, g)
}

// GraphCacheLen reports how many simulated graphs the Memo retains —
// observability for the serving layer's "rejected requests must not grow
// the cache" invariant (and its test).
func (m *Memo) GraphCacheLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.graphs)
}
