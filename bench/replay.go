package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
)

// This file replays a served job in process by calling each layer's
// public functions in the order the service uses them. The output checks
// retrain through it, and the traced run times each step of it.

// resolved is a JobSpec turned into the inputs a replica trains on.
type resolved struct {
	g    *graph.Graph
	prox proximity.Proximity // the lazy measure resolution returns
	cfg  core.Config
	key  experiments.ResultKey
}

func decodeSpec(body []byte) (*spec.JobSpec, error) {
	return spec.Decode(bytes.NewReader(body))
}

// resolveSpec repeats the service's resolution: dataset graphs come from
// the memo, inline graphs are built per request, the batch is clamped to
// |E| and the worker count to the slot bound. The key it derives must
// name the served job, which checks that the replay trains the same
// inputs.
func resolveSpec(memo *experiments.Memo, sp *spec.JobSpec, wantID string) (*resolved, error) {
	cfg, err := sp.Config.CoreConfig()
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	switch {
	case sp.Graph.Dataset != nil:
		d := sp.Graph.Dataset
		g, err = memo.Dataset(d.Name, d.Scale, d.Seed)
	case sp.Graph.Inline != nil:
		b := graph.NewBuilder(sp.Graph.Inline.Nodes)
		for _, e := range sp.Graph.Inline.Edges {
			if err = b.AddEdge(e[0], e[1]); err != nil {
				break
			}
		}
		g = b.Build()
	default:
		err = fmt.Errorf("spec has no dataset or inline graph")
	}
	if err != nil {
		return nil, err
	}
	cfg.BatchSize = min(cfg.BatchSize, g.NumEdges())
	prox, err := proximity.ByName(sp.Proximity, g)
	if err != nil {
		return nil, err
	}
	method, err := methods.Canonical(sp.Method)
	if err != nil {
		return nil, err
	}
	r := &resolved{g: g, prox: prox, cfg: cfg, key: experiments.ResultKey{
		Method: method, Graph: g.Fingerprint(), Proximity: prox.Name(), Config: cfg.Hash(),
	}}
	r.cfg.Workers = max(1, min(cfg.Workers, maxWorkers))
	if id := service.JobID(r.key); id != wantID {
		return nil, fmt.Errorf("replay resolves to job %s, served job is %s", id, wantID)
	}
	return r, nil
}

// spilled reports whether the resolved config trains on the spill tier.
func (r *resolved) spilled() bool {
	return r.cfg.MemoryBudget > 0 && r.cfg.MemoryBudget < r.cfg.DenseStateBytes(r.g.NumNodes())
}

// train runs core.TrainContext on the resolved inputs with the memo's
// proximity, at the given memory budget.
func (r *resolved) train(ctx context.Context, prox proximity.Proximity, budget int64) (*core.Result, error) {
	cfg := r.cfg
	cfg.MemoryBudget = budget
	return core.TrainContext(ctx, r.g, prox, cfg, core.Hooks{})
}

// hashOf formats a result's embedding digest as the server does.
func hashOf(res *core.Result) string {
	return fmt.Sprintf("%016x", mathx.DigestMat(res.Model.Win))
}

// residentBytes is the weight state a result held in memory: the spill
// tiers' high-water marks, or the dense matrices.
func residentBytes(r *resolved, res *core.Result) int64 {
	var n int64
	for _, m := range []mathx.Mat{res.Model.Win, res.Model.Wout} {
		if sm, ok := m.(*mathx.SpillMatrix); ok {
			n += sm.MaxResidentBytes()
		}
	}
	if n == 0 {
		return r.cfg.DenseStateBytes(r.g.NumNodes())
	}
	return n
}

// release closes a replayed result's spill files. A close error is
// dropped: the files are unlinked scratch whose contents were already
// digested.
func release(res *core.Result) {
	for _, m := range []mathx.Mat{res.Model.Win, res.Model.Wout} {
		if sm, ok := m.(*mathx.SpillMatrix); ok {
			_ = sm.Close()
		}
	}
}

// checkJob retrains a served job in process and compares its digest with
// the served embedding hash. dense retrains a spilled job without its
// memory budget, which also checks that the spill tier changes no bit.
func checkJob(ctx context.Context, memo *experiments.Memo, body []byte, id, hash string, dense bool) error {
	sp, err := decodeSpec(body)
	if err != nil {
		return err
	}
	r, err := resolveSpec(memo, sp, id)
	if err != nil {
		return err
	}
	prox, err := memo.Proximity(r.g, r.prox.Name(), r.cfg.Workers)
	if err != nil {
		return err
	}
	budget := r.cfg.MemoryBudget
	if dense {
		budget = 0
	}
	res, err := r.train(ctx, prox, budget)
	if err != nil {
		return err
	}
	defer release(res)
	if got := hashOf(res); got != hash {
		return fmt.Errorf("job %s: in-process replay (memory budget %d) hashes %s, served %s", id, budget, got, hash)
	}
	return nil
}

// fillWeights evaluates the proximity on every subgraph's positive pair,
// one At call each, split into contiguous spans across workers as the
// engine does.
func fillWeights(prox proximity.Proximity, subs []core.Subgraph, workers int) {
	weights := make([]float64, len(subs))
	var wg sync.WaitGroup
	per := (len(subs) + workers - 1) / workers
	for lo := 0; lo < len(subs); lo += per {
		hi := min(lo+per, len(subs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				weights[i] = prox.At(int(subs[i].I), int(subs[i].J))
			}
		}()
	}
	wg.Wait()
}
