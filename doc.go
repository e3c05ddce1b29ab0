// Package seprivgemb is a from-scratch Go implementation of SE-PrivGEmb —
// "Structure-Preference Enabled Graph Embedding Generation under
// Differential Privacy" (Zhang, Ye & Hu, ICDE 2025) — together with every
// substrate the paper depends on: a graph engine, the node-proximity
// measures of Definition 4, a Rényi-DP accountant with subsampling
// amplification, the skip-gram model with structure-weighted objectives,
// the four published baselines (DPGGAN, DPGVAE, GAP, ProGAP), the two
// downstream evaluation tasks (structural equivalence and link prediction),
// and synthetic simulators for the six benchmark datasets.
//
// # Quick start
//
//	g, _ := seprivgemb.GenerateDataset("chameleon", 0.1, 1)
//	prox, _ := seprivgemb.NewProximity("deepwalk", g)
//	cfg := seprivgemb.DefaultConfig() // ε=3.5, δ=1e-5, σ=5, r=128
//	res, _ := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(ctx)
//	score := seprivgemb.StrucEqu(g, res.Embedding())
//
// The released matrix res.Embedding() satisfies node-level (ε, δ)-DP
// (Definition 5); by Theorem 2 any downstream computation on it — including
// both evaluation tasks in this package — retains that guarantee.
//
// Training runs as a job-oriented Session (DESIGN.md §8): canceling ctx
// stops at the next epoch boundary and still returns the best-so-far
// partial result with a resumable Checkpoint (WithResume restores it
// bit-identically); WithEpochHook observes loss and privacy spend live;
// WithCheckpointEvery snapshots periodically. A Service (NewService)
// queues many such jobs behind one worker budget and deduplicates
// identical submissions.
//
// The serving surface (DESIGN.md §9) speaks declarative, wire-codable
// JobSpecs: a graph source (named dataset@scale+seed, inline edge list,
// or server-side file), a proximity by name, and the full config as
// plain data. Service.SubmitSpec resolves and enqueues one — under a
// priority, a per-tenant in-flight quota (ErrQuotaExceeded), TTL+LRU
// bounded result memoization (MemoLimits), and an optional on-disk
// artifact store that survives process restarts — and the HTTP front-end
// (cmd/seprivd, or `sepriv serve`) serves the same contract as JSON on
// POST /v1/jobs. One spec, any transport, one training run: identical
// specs deduplicate onto a single job with a stable ID and a shared
// Result.
//
// Every trainer is served through one method registry (DESIGN.md §11):
// the paper's algorithm is the default, and the four baselines submit by
// name — JobSpec's "method" field, WithMethod on a Session,
// Service.SubmitMethod, `sepriv -method`, with GET /v1/methods listing
// the registry (Methods here). The method is part of the job identity,
// so distinct methods never share a job ID or artifact, while the
// default method's IDs and artifacts are unchanged from earlier
// releases. Baselines are seed-deterministic like the core trainer, so
// repeated submissions dedup onto bit-identical results.
//
// Results serve by row range (DESIGN.md §10): checkpoints and persisted
// artifacts use an indexed chunk format whose row-offset index decodes
// any window [lo, hi) at O(window·r) memory (Result.Rows,
// DecodeCheckpointRows, Service.ResultRows), and the HTTP result API
// pages through large embeddings (?embedding=range&offset=&limit= with a
// Link rel="next" cursor, or GET .../result/rows/{lo}-{hi}) instead of
// inlining |V|×r matrices — embeddingHash always covers the full matrix,
// so every page is verifiable against the whole. `sepriv fetch` is the
// matching CLI client.
//
// A whole comparison grid — the paper's evaluation shape — submits as
// one SweepSpec (DESIGN.md §13): axes (graphs × methods × ε × seeds), a
// shared base config, and a metric (strucequ or linkauc).
// Service.SubmitSweep expands it into per-cell jobs behind the same
// queue, memo, and artifact store, aggregates done cells into a
// (graph, method, ε) → mean±std table over the seed axis, and persists
// the result as its own artifact. Sweep IDs hash the canonicalized cell
// set, so resubmission — any axis order, even after a restart — never
// retrains a cell; failed cells are recorded and excluded rather than
// failing the sweep, and Cancel stops only cells no other submitter
// holds. POST /v1/sweeps and `sepriv sweep -spec sweep.json` speak the
// same contract over HTTP; examples/sweep is the walkthrough.
//
// The server scales out as a replica set (DESIGN.md §14): N seprivd
// instances sharing one artifact directory coordinate purely through
// atomic lease files in the store — a spec submitted to any replica
// trains on exactly one (create-exclusive grant, TTL heartbeat,
// rename-aside takeover when an owner crashes) and every replica
// serves the result, row windows, and events off the shared disk.
// GET /v1/jobs/{id}/events streams per-epoch progress and the terminal
// outcome over SSE, on owners and non-owners alike; NewReplicaManager +
// ServiceOptions.Replica expose the same mode to the Go API, and
// examples/replicas is the walkthrough.
//
// Training state is bounded too (DESIGN.md §15): by default a run holds
// its two |V|×r weight matrices in memory, but WithMemoryBudget (or
// Config.MemoryBudget, the wire field memoryBudget, `sepriv -mem-budget`)
// caps their resident bytes — rows spill to a file-backed tier and only
// an LRU window of 64 KiB chunks stays resident, so a million-node graph
// trains in tens of MiB instead of the dense 2·|V|·r·8. The budget is an
// execution knob exactly like Workers: results are bit-identical at every
// budget, budgets never enter job identity, and checkpoints resume across
// differing budgets. Servers cap per-job footprints with
// ServiceOptions.MaxTrainingBytes (`seprivd -max-train-mem`); the README
// "Capacity planning" section works the arithmetic. examples/outofcore is
// the walkthrough.
//
// Training is deterministic in cfg.Seed and, with cfg.Workers > 1, runs
// subgraph generation, the per-epoch gradient stage AND the DP noise/update
// stage on goroutine pools that preserve bit-identical results at every
// worker count — the noise is addressed by (epoch, matrix, row, coordinate)
// on a counter-based random stream rather than drawn sequentially
// (DESIGN.md §6). The same index-addressed pattern shards the O(|V|²)
// StrucEqu pair scan and link-prediction scoring (StrucEquWorkers,
// LinkAUCWorkers). The experiments harness offers the guarantee one
// level up: independent sweep runs fan across goroutines without changing
// a printed number.
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation.
package seprivgemb
