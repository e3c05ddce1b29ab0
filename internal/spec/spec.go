// Package spec defines the wire-codable job contract of the serving
// surface: a JobSpec names everything a training run needs — a graph
// source, a structure preference, the full hyperparameter set — as plain
// JSON-serializable data, so the same request can arrive over HTTP, be
// read from a file, or be built in Go, and always resolves to the same
// deduplication key. The SoK framing of private graph embedding as a
// service between data owner and analysts needs exactly this: a request
// that can cross a process boundary, unlike the pointer-passing
// Service.Submit(g, prox, cfg) API it generalizes.
//
// A JobSpec is declarative: it never carries object references, only
// names and values. Resolution (turning the spec into a live graph,
// proximity, and core.Config) happens in internal/service, where the
// memo shares simulated datasets across identical requests.
package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"path"
	"path/filepath"
	"strings"

	"seprivgemb/internal/core"
	"seprivgemb/internal/methods"
)

// JobSpec is one declarative training request. The zero value is invalid;
// every spec must name a graph source and a proximity measure. Two specs
// that resolve to the same (graph fingerprint, proximity, config hash)
// are the same job: the service trains once and serves every submitter.
type JobSpec struct {
	// Graph names the training graph (exactly one source must be set).
	Graph GraphSource `json:"graph"`
	// Method selects the training method from the registry
	// (internal/methods): "sepriv" (the paper's method, the default when
	// omitted), "dpggan", "dpgvae", "gap", or "progap". Unknown names are
	// rejected at validation. The method is part of the deduplication key:
	// two specs differing only in method are two distinct jobs.
	Method string `json:"method,omitempty"`
	// Proximity is the structure-preference measure by name, as accepted
	// by proximity.ByName ("deepwalk", "degree", "common-neighbors",
	// "preferential-attachment", "adamic-adar", "resource-allocation",
	// "katz", "pagerank", or their short aliases). Required even for
	// methods that do not consume it (it stays part of the job identity).
	Proximity string `json:"proximity"`
	// Config holds the Algorithm 2 hyperparameters; zero fields take the
	// paper's defaults (see ConfigSpec).
	Config ConfigSpec `json:"config"`
	// Priority orders admission when jobs queue for worker slots: higher
	// runs first, ties run in arrival order. It does not affect results.
	Priority int `json:"priority,omitempty"`
	// Tenant attributes the job for per-tenant admission control. Empty
	// is a valid (shared) tenant.
	Tenant string `json:"tenant,omitempty"`
}

// GraphSource selects where the training graph comes from. Exactly one
// field must be non-nil.
type GraphSource struct {
	// Dataset simulates one of the paper's benchmark datasets.
	Dataset *DatasetSource `json:"dataset,omitempty"`
	// Inline carries the edge list in the request body.
	Inline *InlineSource `json:"inline,omitempty"`
	// File names a server-side edge-list file.
	File *FileSource `json:"file,omitempty"`
}

// DatasetSource names a simulated dataset: the serving layer generates it
// with datasets.Generate and memoizes the simulation per (name, scale,
// seed), so a popular dataset is built once per process.
type DatasetSource struct {
	// Name is one of the six benchmark datasets ("chameleon", "ppi",
	// "power", "arxiv", "blogcatalog", "dblp").
	Name string `json:"name"`
	// Scale multiplies the node count, at most 1; <= 0 selects the
	// dataset default.
	Scale float64 `json:"scale,omitempty"`
	// Seed seeds the simulation.
	Seed uint64 `json:"seed"`
}

// InlineSource is an edge list carried in the request. Node IDs must lie
// in [0, Nodes), and Nodes may not exceed 2·len(Edges) (validation);
// self-loops and duplicate edges are rejected at resolution, matching
// graph.Builder semantics.
type InlineSource struct {
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"`
}

// FileSource names a whitespace-separated edge-list file under the
// server's configured graph directory. The path is relative and may not
// escape that directory; servers without a graph directory reject file
// sources outright.
type FileSource struct {
	Path string `json:"path"`
}

// ConfigSpec is the wire form of core.Config. Zero-valued fields take the
// paper's defaults (core.DefaultConfig: r=128, k=5, B=128, η=0.1, C=2,
// σ=5, ε=3.5, δ=1e-5, 200 epochs, non-zero perturbation, private), so a
// minimal request only names a seed. Clip < 0 disables clipping (the wire
// form's stand-in for core's Clip <= 0, which zero-defaulting shadows).
type ConfigSpec struct {
	Dim          int     `json:"dim,omitempty"`
	K            int     `json:"k,omitempty"`
	BatchSize    int     `json:"batchSize,omitempty"`
	MaxEpochs    int     `json:"maxEpochs,omitempty"`
	LearningRate float64 `json:"learningRate,omitempty"`
	Clip         float64 `json:"clip,omitempty"`
	Sigma        float64 `json:"sigma,omitempty"`
	Epsilon      float64 `json:"epsilon,omitempty"`
	Delta        float64 `json:"delta,omitempty"`
	// Strategy is "non-zero" (default) or "naive".
	Strategy string `json:"strategy,omitempty"`
	// NegSampling is "uniform" (default) or "degree".
	NegSampling string `json:"negSampling,omitempty"`
	// Private defaults to true when omitted; set false for the
	// non-private SE-GEmb counterpart.
	Private *bool  `json:"private,omitempty"`
	Seed    uint64 `json:"seed"`
	// Workers requests a parallel run; the service may clamp it to its
	// worker budget. Never part of the deduplication key (results are
	// bit-identical at every count).
	Workers int `json:"workers,omitempty"`
	// MemoryBudget bounds the resident bytes of the run's training state
	// (core.Config.MemoryBudget): 0 trains in memory, a positive budget
	// below the dense 2·|V|·r·8 footprint selects the spill tier. Like
	// Workers it is an execution knob — never part of the deduplication
	// key, since results are bit-identical at every budget.
	MemoryBudget int64 `json:"memoryBudget,omitempty"`
}

// Validate checks the spec's structural invariants — the ones decidable
// without touching a graph or the filesystem. Resolution errors (unknown
// dataset, bad edge list, missing file) surface later, from the service.
func (s *JobSpec) Validate() error {
	n := 0
	if s.Graph.Dataset != nil {
		n++
		if s.Graph.Dataset.Name == "" {
			return fmt.Errorf("spec: dataset source needs a name")
		}
		// The scale sizes the simulation before admission can see its node
		// count, so it may only shrink a dataset.
		if sc := s.Graph.Dataset.Scale; !(sc <= 1) {
			return fmt.Errorf("spec: dataset scale %g is above 1", sc)
		}
	}
	if s.Graph.Inline != nil {
		n++
		if s.Graph.Inline.Nodes < 2 {
			return fmt.Errorf("spec: inline graph needs at least 2 nodes, got %d", s.Graph.Inline.Nodes)
		}
		if len(s.Graph.Inline.Edges) == 0 {
			return fmt.Errorf("spec: inline graph has no edges")
		}
		// Nodes sizes the graph's allocations before admission; nodes
		// beyond 2·|E| could only be isolated, so this cap ties the
		// allocation to the request body instead of a bare integer.
		if s.Graph.Inline.Nodes > 2*len(s.Graph.Inline.Edges) {
			return fmt.Errorf("spec: inline graph declares %d nodes but %d edges can touch at most %d",
				s.Graph.Inline.Nodes, len(s.Graph.Inline.Edges), 2*len(s.Graph.Inline.Edges))
		}
	}
	if s.Graph.File != nil {
		n++
		if err := validateFilePath(s.Graph.File.Path); err != nil {
			return err
		}
	}
	if n != 1 {
		return fmt.Errorf("spec: exactly one graph source (dataset, inline, file) required, got %d", n)
	}
	if _, err := methods.Canonical(s.Method); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if s.Proximity == "" {
		return fmt.Errorf("spec: proximity measure is required")
	}
	if _, err := s.Config.strategy(); err != nil {
		return err
	}
	if _, err := s.Config.negSampling(); err != nil {
		return err
	}
	return nil
}

// validateFilePath confines a file source to relative paths that cannot
// escape the server's graph directory. The wire contract is slash-only:
// backslashes are rejected outright rather than interpreted, because a
// path like `..\..\x` is an innocent filename on Unix but a traversal on
// Windows, and a spec must mean one thing everywhere. filepath.IsLocal
// then applies the host's own notion of "stays below the root" (drive
// letters, reserved names, …) as defense in depth.
func validateFilePath(p string) error {
	switch {
	case p == "":
		return fmt.Errorf("spec: file source needs a path")
	case strings.ContainsRune(p, '\\'):
		return fmt.Errorf("spec: file path must use forward slashes")
	case strings.HasPrefix(p, "/"):
		return fmt.Errorf("spec: file path must be relative to the server's graph directory")
	}
	clean := path.Clean(p)
	if clean == ".." || strings.HasPrefix(clean, "../") {
		return fmt.Errorf("spec: file path %q escapes the graph directory", p)
	}
	if !filepath.IsLocal(filepath.FromSlash(clean)) {
		return fmt.Errorf("spec: file path %q is not local to the graph directory", p)
	}
	return nil
}

func (c ConfigSpec) strategy() (core.Strategy, error) {
	switch c.Strategy {
	case "", "non-zero", "nonzero":
		return core.StrategyNonZero, nil
	case "naive":
		return core.StrategyNaive, nil
	default:
		return 0, fmt.Errorf("spec: unknown strategy %q (want non-zero or naive)", c.Strategy)
	}
}

func (c ConfigSpec) negSampling() (core.NegSampling, error) {
	switch c.NegSampling {
	case "", "uniform":
		return core.NegUniform, nil
	case "degree":
		return core.NegDegree, nil
	default:
		return 0, fmt.Errorf("spec: unknown negSampling %q (want uniform or degree)", c.NegSampling)
	}
}

// CoreConfig maps the wire form onto core.Config: paper defaults first,
// then every non-zero field overrides. The mapping is total on valid
// specs — core.Config.validate still runs at training time against the
// resolved graph (batch vs |E|, positivity, …).
func (c ConfigSpec) CoreConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	strat, err := c.strategy()
	if err != nil {
		return cfg, err
	}
	neg, err := c.negSampling()
	if err != nil {
		return cfg, err
	}
	cfg.Strategy = strat
	cfg.NegSampling = neg
	if c.Dim != 0 {
		cfg.Dim = c.Dim
	}
	if c.K != 0 {
		cfg.K = c.K
	}
	if c.BatchSize != 0 {
		cfg.BatchSize = c.BatchSize
	}
	if c.MaxEpochs != 0 {
		cfg.MaxEpochs = c.MaxEpochs
	}
	if c.LearningRate != 0 {
		cfg.LearningRate = c.LearningRate
	}
	if c.Clip != 0 {
		cfg.Clip = c.Clip
		if c.Clip < 0 {
			cfg.Clip = 0 // wire form for "clipping disabled"
		}
	}
	if c.Sigma != 0 {
		cfg.Sigma = c.Sigma
	}
	if c.Epsilon != 0 {
		cfg.Epsilon = c.Epsilon
	}
	if c.Delta != 0 {
		cfg.Delta = c.Delta
	}
	if c.Private != nil {
		cfg.Private = *c.Private
	}
	cfg.Seed = c.Seed
	cfg.Workers = c.Workers
	cfg.MemoryBudget = c.MemoryBudget
	return cfg, nil
}

// Decode reads one JSON JobSpec from r, rejecting unknown fields (a typo
// in a hyperparameter name must be a 400, not a silently defaulted run)
// and trailing garbage.
func Decode(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	s := &JobSpec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("spec: decoding job spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after job spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Encode writes s as JSON. The field order is fixed by the struct
// definitions, so the encoding is stable — pinned by the golden test.
func (s *JobSpec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}
