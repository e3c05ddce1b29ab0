package service

import (
	"fmt"
	"path/filepath"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/spec"
)

// resolve turns a validated JobSpec into the live objects a training run
// needs: its graph (ResolveGraph) and the measure, config and key ResolveJob
// derives from it.
func (s *Service) resolve(sp spec.JobSpec) (*graph.Graph, proximity.Proximity, core.Config, experiments.ResultKey, error) {
	g, err := s.ResolveGraph(sp.Graph)
	if err != nil {
		return nil, nil, core.Config{}, experiments.ResultKey{}, err
	}
	prox, cfg, key, err := s.ResolveJob(sp.Method, g, sp.Proximity, sp.Config)
	return g, prox, cfg, key, err
}

// ResolveJob is the service's one resolution of a job over a live graph,
// and the service's sweep.Resolver: it returns the lazy measure the job
// trains on (its weight fill builds only the rows of the pairs the run
// samples), its config with the batch clamp applied, and its
// deduplication key — what submit takes. SubmitSpec and sweep expansion
// both resolve through it, so a sweep cell's planned key is its job's key.
func (s *Service) ResolveJob(method string, g *graph.Graph, measure string, cs spec.ConfigSpec) (proximity.Proximity, core.Config, experiments.ResultKey, error) {
	cfg, err := cs.CoreConfig()
	if err != nil {
		return nil, cfg, experiments.ResultKey{}, err
	}
	// Batch sampling is without replacement, so B caps at |E| — the same
	// clamp the CLI applies. Doing it during resolution keeps the clamp
	// inside the dedup key: every transport sees the identical Config.
	if cfg.BatchSize > g.NumEdges() {
		cfg.BatchSize = g.NumEdges()
	}
	prox, err := proximity.ByName(measure, g)
	if err != nil {
		return nil, cfg, experiments.ResultKey{}, err
	}
	key, err := jobKey(method, g, prox, cfg)
	return prox, cfg, key, err
}

// jobKey is the deduplication key of a job: its canonical method, graph
// fingerprint, measure name and result-shaping config hash (which ignores
// Workers). The method is canonicalized here, so "" and "sepriv" — and any
// future alias — land on one job.
func jobKey(method string, g *graph.Graph, prox proximity.Proximity, cfg core.Config) (experiments.ResultKey, error) {
	mname, err := methods.Canonical(method)
	if err != nil {
		return experiments.ResultKey{}, err
	}
	return experiments.ResultKey{
		Method:    mname,
		Graph:     g.Fingerprint(),
		Proximity: prox.Name(),
		Config:    cfg.Hash(),
	}, nil
}

// ResolveGraph builds a spec's graph — resolve's first step, and sweep
// expansion's for every graph axis: datasets come from the memo, so a
// popular dataset@scale+seed is built once per process however many specs
// and sweep cells name it; inline and file sources are built per request
// (their results still deduplicate: the job key holds the graph's
// fingerprint, which identical edge lists share).
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
