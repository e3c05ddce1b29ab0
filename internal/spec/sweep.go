package spec

// This file is the sweep half of the request contract: a SweepSpec names a
// whole comparison grid — the paper's evaluation shape — as declaratively
// as a JobSpec names one run. The grid is the cross product of four axes
// (graph sources × methods × privacy budgets × seeds) plus an evaluation
// selection; the service expands it into per-cell JobSpecs, so every cell
// deduplicates against individual jobs and other sweeps through the very
// same job table and artifact machinery.
//
// Axes are canonicalized before expansion (methods resolved and sorted,
// epsilons and seeds sorted, duplicates dropped), so two specs naming the
// same grid in different orders are the SAME sweep: one deterministic
// sweep ID, one cell set, one aggregated table.

import (
	"encoding/json"
	"fmt"
	"io"

	"seprivgemb/internal/methods"
)

// Sweep evaluation metrics.
const (
	// MetricStrucEqu scores each cell's embedding with the structural
	// equivalence metric of Section VI-A against the cell's training graph.
	MetricStrucEqu = "strucequ"
	// MetricLinkAUC runs the paper's link-prediction protocol: each cell's
	// graph is split 90/10 (deterministically, from the cell seed), the
	// cell trains on the retained edges, and the held-out links are scored
	// by embedding inner product (ROC AUC).
	MetricLinkAUC = "linkauc"
)

// SweepSpec is one declarative comparison grid: every combination of
// (graph, method, epsilon, seed) becomes a training cell, each cell's
// embedding is scored by the selected metric, and the results aggregate
// into a (graph, method, epsilon) table of mean±std over seeds — the
// paper's Tables/Figures shape, produced server-side.
type SweepSpec struct {
	// Graphs lists the training graphs (at least one; each names exactly
	// one source, like JobSpec.Graph).
	Graphs []GraphSource `json:"graphs"`
	// Methods lists registry method names ("sepriv", "gap", ...); at
	// least one. Unknown names are rejected at validation.
	Methods []string `json:"methods"`
	// Epsilons lists the privacy budgets of the grid (each > 0).
	Epsilons []float64 `json:"epsilons"`
	// Seeds lists the per-cell training seeds; the table reports mean and
	// sample standard deviation over this axis.
	Seeds []uint64 `json:"seeds"`
	// Proximity is the structure preference shared by every cell.
	Proximity string `json:"proximity"`
	// Config is the base hyperparameter set of every cell; its Epsilon and
	// Seed fields are overridden per cell by the grid axes (a non-zero
	// value in either is rejected so a spec cannot silently contradict its
	// own axes).
	Config ConfigSpec `json:"config"`
	// Eval selects the per-cell metric; the zero value means exact
	// StrucEqu.
	Eval EvalSpec `json:"eval,omitempty"`
	// Priority is handed to every cell job's admission.
	Priority int `json:"priority,omitempty"`
	// Tenant attributes every cell job. Cell submissions respect the
	// tenant's in-flight quota: the sweep feeds cells into the queue as
	// slots free up instead of rejecting the sweep.
	Tenant string `json:"tenant,omitempty"`
}

// EvalSpec selects how each completed cell's embedding is scored.
type EvalSpec struct {
	// Metric is "strucequ" (the default) or "linkauc".
	Metric string `json:"metric,omitempty"`
	// SamplePairs switches StrucEqu to pair sampling when the graph has
	// more than SamplePairs node pairs (0 keeps the exact O(|V|²) scan).
	// The sample is drawn deterministically from the cell seed.
	SamplePairs int `json:"samplePairs,omitempty"`
	// TestFraction is the held-out edge fraction of the linkauc split;
	// 0 means the paper's 0.10.
	TestFraction float64 `json:"testFraction,omitempty"`
}

// maxSweepCells bounds the grid size a single spec may expand into: wide
// enough for every table in the paper, small enough that a hostile spec
// cannot queue an unbounded cell fan-out in one request.
const maxSweepCells = 4096

// MetricName returns the spec's canonical metric name.
func (e EvalSpec) MetricName() string {
	if e.Metric == "" {
		return MetricStrucEqu
	}
	return e.Metric
}

// TestFrac returns the linkauc split fraction with the paper default
// applied.
func (e EvalSpec) TestFrac() float64 {
	if e.TestFraction == 0 {
		return 0.10
	}
	return e.TestFraction
}

// Validate checks the sweep's structural invariants — everything decidable
// without resolving a graph. Per-cell failures (a method rejecting the
// config against a resolved graph, a dataset that fails to generate) are
// NOT validation errors: they become failed cells of a sweep that still
// completes, so one bad cell cannot sink a 500-cell grid.
func (s *SweepSpec) Validate() error {
	if len(s.Graphs) == 0 {
		return fmt.Errorf("spec: sweep needs at least one graph source")
	}
	for i := range s.Graphs {
		probe := JobSpec{Graph: s.Graphs[i], Proximity: s.Proximity}
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("spec: sweep graph %d: %w", i, err)
		}
	}
	if len(s.Methods) == 0 {
		return fmt.Errorf("spec: sweep needs at least one method")
	}
	for _, m := range s.Methods {
		if _, err := methods.Canonical(m); err != nil {
			return fmt.Errorf("spec: sweep: %w", err)
		}
	}
	if len(s.Epsilons) == 0 {
		return fmt.Errorf("spec: sweep needs at least one epsilon")
	}
	for _, eps := range s.Epsilons {
		if eps <= 0 {
			return fmt.Errorf("spec: sweep epsilon %g must be positive", eps)
		}
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("spec: sweep needs at least one seed")
	}
	if s.Config.Epsilon != 0 {
		return fmt.Errorf("spec: sweep config must not set epsilon (the epsilons axis provides it)")
	}
	if s.Config.Seed != 0 {
		return fmt.Errorf("spec: sweep config must not set seed (the seeds axis provides it)")
	}
	if _, err := s.Config.strategy(); err != nil {
		return err
	}
	if _, err := s.Config.negSampling(); err != nil {
		return err
	}
	switch s.Eval.MetricName() {
	case MetricStrucEqu, MetricLinkAUC:
	default:
		return fmt.Errorf("spec: unknown sweep metric %q (want %s or %s)",
			s.Eval.Metric, MetricStrucEqu, MetricLinkAUC)
	}
	if s.Eval.SamplePairs < 0 {
		return fmt.Errorf("spec: samplePairs %d must be >= 0", s.Eval.SamplePairs)
	}
	if f := s.Eval.TestFrac(); f <= 0 || f >= 1 {
		return fmt.Errorf("spec: linkauc test fraction %g outside (0, 1)", f)
	}
	if cells := len(s.Graphs) * len(s.Methods) * len(s.Epsilons) * len(s.Seeds); cells > maxSweepCells {
		return fmt.Errorf("spec: sweep expands to %d cells, the limit is %d", cells, maxSweepCells)
	}
	return nil
}

// DecodeSweep reads one JSON SweepSpec from r with the same strictness as
// Decode: unknown fields and trailing garbage are errors, not silently
// defaulted grids.
func DecodeSweep(r io.Reader) (*SweepSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	s := &SweepSpec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("spec: decoding sweep spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after sweep spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Encode writes s as JSON with the struct-fixed field order.
func (s *SweepSpec) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(s)
}
