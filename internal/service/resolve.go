package service

import (
	"fmt"
	"path/filepath"

	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/spec"
)

// resolve turns a validated JobSpec into the live objects a training run
// needs. Dataset simulations come from the service's Memo, so a popular
// dataset@scale+seed is built once per process no matter how many specs
// name it; inline and file graphs are per-request (their results still
// deduplicate downstream — the job key is the graph FINGERPRINT, which
// identical edge lists share). The proximity returned here is the lazy
// measure the job trains on: its canonical Name keys the dedup, and the
// weight fill builds only the rows of the pairs the run samples.
func (s *Service) resolve(sp spec.JobSpec) (*graph.Graph, proximity.Proximity, core.Config, error) {
	cfg, err := sp.Config.CoreConfig()
	if err != nil {
		return nil, nil, cfg, err
	}
	g, err := s.ResolveGraph(sp.Graph)
	if err != nil {
		return nil, nil, cfg, err
	}
	// Batch sampling is without replacement, so B caps at |E| — the same
	// clamp the CLI applies. Doing it during resolution keeps the clamp
	// inside the dedup key: every transport sees the identical Config.
	if cfg.BatchSize > g.NumEdges() {
		cfg.BatchSize = g.NumEdges()
	}
	prox, err := proximity.ByName(sp.Proximity, g)
	if err != nil {
		return nil, nil, cfg, err
	}
	return g, prox, cfg, nil
}

// ResolveGraph builds a spec's graph — resolve's first step, and the
// service's sweep.Resolver: datasets come from the memo (so sweep
// expansion warms exactly the cache cell submissions will hit), inline and
// file sources are built per request.
func (s *Service) ResolveGraph(src spec.GraphSource) (*graph.Graph, error) {
	switch {
	case src.Dataset != nil:
		return s.opts.Memo.Dataset(src.Dataset.Name, src.Dataset.Scale, src.Dataset.Seed)
	case src.Inline != nil:
		return buildInline(src.Inline)
	case src.File != nil:
		return s.loadFile(src.File)
	default:
		return nil, fmt.Errorf("spec has no graph source")
	}
}

// buildInline assembles a request-carried edge list, enforcing the graph
// package's simple-graph invariants (in-range endpoints, no self-loops,
// no duplicates).
func buildInline(in *spec.InlineSource) (*graph.Graph, error) {
	b := graph.NewBuilder(in.Nodes)
	for i, e := range in.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("inline edge %d (%d,%d): %w", i, e[0], e[1], err)
		}
	}
	return b.Build(), nil
}

// loadFile reads a server-side edge list, confined to the configured
// graph directory. Validate already rejected absolute and escaping paths;
// the filepath.Clean here is defense in depth for the join.
func (s *Service) loadFile(f *spec.FileSource) (*graph.Graph, error) {
	if s.opts.GraphDir == "" {
		return nil, fmt.Errorf("file graph sources are disabled (no graph directory configured)")
	}
	full := filepath.Join(s.opts.GraphDir, filepath.Clean(filepath.FromSlash(f.Path)))
	return graph.ReadEdgeListFile(full)
}
