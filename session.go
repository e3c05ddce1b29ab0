package seprivgemb

import (
	"context"
	"fmt"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/replica"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
)

// This file is the job-oriented face of the library: Session wraps one
// training run as a cancellable, observable, resumable job, and Service
// queues many such runs behind a shared worker budget. Both are thin over
// core.TrainContext and internal/service.

// Re-exported session and service types.
type (
	// EpochStats is the per-epoch observation handed to an EpochHook:
	// loss, privacy spend, and elapsed wall-clock time.
	EpochStats = core.EpochStats
	// StageTimings is the cumulative per-stage wall-clock breakdown
	// carried by EpochStats and Result (DESIGN.md §12).
	StageTimings = core.StageTimings
	// EpochHook observes training progress; see TrainHooks' ordering
	// guarantees in DESIGN.md §8.
	EpochHook = core.EpochHook
	// Checkpoint is a resumable snapshot of a run at an epoch boundary;
	// resuming one is bit-identical to never having stopped.
	Checkpoint = core.Checkpoint
	// StopReason records why a run ended (completed, budget, canceled).
	StopReason = core.StopReason
	// Job is a queued training run inside a Service: cancellable,
	// observable (Progress), awaitable (Wait). Its Result keeps the
	// published embedding Win only (Model.Wout is nil).
	Job = service.Job
	// JobStatus is a Job's lifecycle state.
	JobStatus = service.Status
	// JobSpec is the declarative, wire-codable training request: graph
	// source, proximity by name, full config, priority, and tenant. The
	// single submission currency of the serving surface — the same spec
	// deduplicates across the Go API and the HTTP front-end.
	JobSpec = spec.JobSpec
	// GraphSource names a JobSpec's training graph (dataset, inline edge
	// list, or server-side file — exactly one).
	GraphSource = spec.GraphSource
	// DatasetSource simulates a named benchmark dataset at scale+seed.
	DatasetSource = spec.DatasetSource
	// InlineSource carries an edge list in the request.
	InlineSource = spec.InlineSource
	// FileSource names a server-side edge-list file.
	FileSource = spec.FileSource
	// ConfigSpec is the wire form of Config; zero fields take the paper
	// defaults.
	ConfigSpec = spec.ConfigSpec
	// ServiceOptions configures NewServiceWith: worker budget, result
	// retention limits, per-tenant quotas, graph and artifact directories.
	ServiceOptions = service.Options
	// MemoLimits bounds the finished jobs a service keeps in memory (TTL +
	// LRU cap); see ServiceOptions.MemoLimits.
	MemoLimits = service.Limits
	// EmbeddingWindow is a decoded row window [Lo, Hi) of a stored
	// embedding — the currency of partial-embedding serving. Result.Rows
	// cuts one from an in-memory result; Service.ResultRows and
	// DecodeCheckpointRows decode one from the artifact store or an
	// indexed checkpoint at O(window·r) memory.
	EmbeddingWindow = core.EmbeddingWindow
	// MethodInfo describes one entry of the trainer registry — name,
	// description, default flag, and whether the method consumes the
	// structure preference. See Methods.
	MethodInfo = methods.Info
	// SweepSpec declares a whole comparison grid — (graph × method ×
	// ε × seed), the paper's evaluation shape — submitted as one unit;
	// see Service.SubmitSweep.
	SweepSpec = spec.SweepSpec
	// SweepEval selects how each sweep cell's embedding is scored
	// (strucequ or linkauc, with their parameters).
	SweepEval = spec.EvalSpec
	// Sweep is the handle to a submitted comparison grid: observable
	// (Status), awaitable (Wait), cancellable (Cancel — only cells no
	// other submitter holds are stopped).
	Sweep = service.Sweep
	// SweepResult is a completed sweep's aggregate: per-cell outcomes and
	// the (graph, method, ε) → mean±std table, in the same wire layout
	// the HTTP API serves and persists.
	SweepResult = spec.SweepResultResponse
	// SweepTable is the aggregated comparison table of a completed sweep.
	SweepTable = spec.SweepTable
	// ReplicaManager leases job ownership through atomic lease files in
	// a shared artifact directory, making N Services over one directory a
	// replica set: each spec trains exactly once set-wide, every member
	// serves the result (DESIGN.md §14). Construct with NewReplicaManager
	// and pass via ServiceOptions.Replica.
	ReplicaManager = replica.Manager
	// JobEvent is one frame of a job's event stream — epoch progress or
	// the terminal outcome — as served over SSE by GET /v1/jobs/{id}/events.
	JobEvent = spec.JobEvent
)

// DefaultLeaseTTL is the replica lease lifetime when none is chosen: a
// crashed owner's jobs become reacquirable this long after its last
// heartbeat.
const DefaultLeaseTTL = replica.DefaultTTL

// NewReplicaManager joins the replica set coordinating over dir under the
// given identity. TTL ≤ 0 takes DefaultLeaseTTL. Pass the manager in
// ServiceOptions.Replica together with ArtifactDir — the lease substrate
// IS the shared store.
func NewReplicaManager(dir, id string, ttl time.Duration) (*ReplicaManager, error) {
	return replica.NewManager(dir, id, ttl)
}

// DefaultMethod is the training method selected when none is named:
// "sepriv", the paper's own algorithm.
const DefaultMethod = methods.Default

// Methods lists the trainer registry — the paper's method and the four
// reproduced baselines — in name order. Every listed name is valid for
// WithMethod, Service.SubmitMethod, JobSpec.Method, and the `sepriv
// -method` flag; the HTTP API serves the same listing at GET /v1/methods.
func Methods() []MethodInfo { return methods.List() }

// CanonicalMethod resolves a method name the way every entry point does —
// trimmed, case-folded, aliases collapsed, "" meaning DefaultMethod — or
// fails listing the valid names.
func CanonicalMethod(name string) (string, error) { return methods.Canonical(name) }

// ErrQuotaExceeded, ErrInvalidSpec and ErrServiceClosed classify
// submission failures (test with errors.Is); the HTTP front-end maps
// them to 429, 400 and 503.
var (
	ErrQuotaExceeded = service.ErrQuotaExceeded
	ErrInvalidSpec   = service.ErrInvalidSpec
	ErrServiceClosed = service.ErrClosed
)

// Stop reasons for Result.Stopped.
const (
	StopCompleted = core.StopCompleted
	StopBudget    = core.StopBudget
	StopCanceled  = core.StopCanceled
)

// Job lifecycle states.
const (
	JobQueued   = service.StatusQueued
	JobRunning  = service.StatusRunning
	JobDone     = service.StatusDone
	JobFailed   = service.StatusFailed
	JobCanceled = service.StatusCanceled
)

// DecodeCheckpoint reads a checkpoint previously written with
// Checkpoint.Encode, for use with WithResume. ra is the stream (an
// *os.File or *bytes.Reader) and size its byte length, as for
// DecodeCheckpointRows; a stream in any other format, or one whose frames
// do not tile it exactly, is an error.
var DecodeCheckpoint = core.DecodeCheckpoint

// DecodeCheckpointRows decodes only rows [lo, hi) of the embedding matrix
// of an indexed (v3) checkpoint stream, seeking through its row-offset
// index instead of materializing the full matrices — serve a window of a
// million-node snapshot at O(window·r) memory. ra is the stream (an
// *os.File or *bytes.Reader) and size its byte length; a stream in any
// other format is an error.
var DecodeCheckpointRows = core.DecodeCheckpointRows

// Session is one configured training run behind the job-oriented API:
// construct with NewSession, then drive it with Run. A Session is
// immutable after construction and may be Run multiple times — each Run
// is an independent, identically seeded (hence identical) training run,
// and concurrent Runs are safe.
type Session struct {
	g      *Graph
	prox   Proximity
	cfg    Config
	method string
	hooks  core.Hooks
}

// Option configures a Session at construction.
type Option func(*Session)

// WithConfig replaces the session's entire Config (default: DefaultConfig).
// Apply it before the narrower options — later options win.
func WithConfig(cfg Config) Option {
	return func(s *Session) { s.cfg = cfg }
}

// WithSeed sets the run's random seed.
func WithSeed(seed uint64) Option {
	return func(s *Session) { s.cfg.Seed = seed }
}

// WithWorkers sets the goroutine count of the run's parallel stages; the
// result is bit-identical at every count (DESIGN.md §6).
func WithWorkers(n int) Option {
	return func(s *Session) { s.cfg.Workers = n }
}

// WithMemoryBudget bounds the resident bytes of the run's weight state
// (Win and Wout together). A positive budget below the dense 2·|V|·r·8
// footprint moves both matrices onto a file-backed spill tier whose
// resident window stays within the budget; 0 (the default) trains fully
// in memory. The result is bit-identical at every budget — like Workers,
// the budget is an execution knob, never part of the result's identity —
// but budgets below Config.MinMemoryBudget (an epoch's pinned working
// set) fail validation at Run. Only the default method supports a budget.
func WithMemoryBudget(bytes int64) Option {
	return func(s *Session) { s.cfg.MemoryBudget = bytes }
}

// WithEpochHook registers a per-epoch observer: called synchronously on
// the training goroutine, exactly once per completed epoch, in epoch
// order, after the epoch's update and accountant step.
func WithEpochHook(h EpochHook) Option {
	return func(s *Session) { s.hooks.Epoch = h }
}

// WithCheckpointEvery snapshots the run after every n-th epoch (and at the
// final boundary), handing each immutable snapshot to sink. Use n <= 0
// with a non-nil sink to receive only the final snapshot.
func WithCheckpointEvery(n int, sink func(*Checkpoint)) Option {
	return func(s *Session) {
		s.hooks.CheckpointEvery = n
		s.hooks.Checkpoint = sink
	}
}

// WithResume restores the run from a checkpoint instead of starting at
// epoch 0. The session's graph and config must match the recorded run
// (Workers and MaxEpochs may differ); the resumed run is bit-identical to
// one that never stopped. Only the default method supports resume.
func WithResume(ck *Checkpoint) Option {
	return func(s *Session) { s.hooks.Resume = ck }
}

// WithMethod selects the training method by registry name: "sepriv" (the
// default), "dpggan", "dpgvae", "gap", or "progap" — see Methods for the
// listing. Baselines ignore proximity (it is required only for job
// identity when submitting through a Service) and the epoch and
// checkpoint hooks; they map Config onto their own hyperparameters
// (MaxEpochs → epoch cap, BatchSize clamped to |V|) and are always
// private. Run rejects a baseline with WithResume, WithMemoryBudget or a
// non-private Config — the configs Service.SubmitMethod rejects — and
// fails on an unknown name.
func WithMethod(name string) Option {
	return func(s *Session) { s.method = name }
}

// NewSession builds a training session over g with the given structure
// preference. Without options the session runs Algorithm 2 under
// DefaultConfig().
func NewSession(g *Graph, prox Proximity, opts ...Option) *Session {
	s := &Session{g: g, prox: prox, cfg: core.DefaultConfig()}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Config returns the session's resolved configuration.
func (s *Session) Config() Config { return s.cfg }

// Run executes the training job — Algorithm 2 or its non-private
// counterpart by default, or the WithMethod-selected baseline — under ctx.
//
// For the default method, cancellation is honored at epoch granularity: a
// canceled or expired context ends the run with the best-so-far *Result —
// not an error — whose Stopped field is StopCanceled, Epochs counts the
// completed epochs, and Checkpoint resumes the run bit-identically (hand
// it to a new session via WithResume). Baselines have no resumable partial
// state, so a canceled baseline run returns ctx's error instead. Errors
// are otherwise reserved for invalid graphs, configs, checkpoints, or
// method names. A nil ctx behaves as context.Background().
func (s *Session) Run(ctx context.Context) (*Result, error) {
	m, err := methods.Get(s.method)
	if err != nil {
		return nil, err
	}
	return m.Train(ctx, s.g, s.prox, s.cfg, s.hooks)
}

// Service queues concurrent training jobs behind one worker budget,
// deduplicating identical (graph, proximity, config) submissions so a
// popular request trains once no matter how many callers ask. Construct
// with NewService; see Submit.
type Service struct {
	svc *service.Service
}

// NewService returns a job service bounded to maxWorkers total training
// workers across all concurrently running jobs (<= 0 selects GOMAXPROCS).
func NewService(maxWorkers int) *Service {
	return NewServiceWith(ServiceOptions{MaxWorkers: maxWorkers})
}

// NewServiceWith returns a job service with the full serving
// configuration: finished-job retention limits, per-tenant in-flight quotas,
// a graph directory for file-sourced specs, and an artifact directory
// that persists completed results across process restarts.
func NewServiceWith(opts ServiceOptions) *Service {
	return &Service{svc: service.New(opts)}
}

// Submit enqueues a training run and returns its Job handle. Submissions
// whose graph fingerprint, proximity name, and result-shaping config match
// a queued, running, or completed job share that job — and its ONE trained
// Result, which must therefore be treated as read-only (copy the embedding
// before transforming it in place) — instead of training again.
func (s *Service) Submit(g *Graph, prox Proximity, cfg Config) (*Job, error) {
	if g == nil || prox == nil {
		return nil, fmt.Errorf("seprivgemb: Submit needs a graph and a proximity")
	}
	return s.svc.Submit(g, prox, cfg)
}

// SubmitMethod is Submit for an explicit registry method (see Methods).
// The method is part of the job identity: distinct methods over one
// (graph, proximity, config) are distinct jobs with distinct IDs, results,
// and artifacts, while identical (method, graph, proximity, config)
// submissions — over any transport — share one job.
func (s *Service) SubmitMethod(method string, g *Graph, prox Proximity, cfg Config) (*Job, error) {
	if g == nil || prox == nil {
		return nil, fmt.Errorf("seprivgemb: SubmitMethod needs a graph and a proximity")
	}
	return s.svc.SubmitMethod(method, g, prox, cfg)
}

// SubmitSpec enqueues a declarative JobSpec: the graph source is resolved
// (simulated datasets are memoized per service), the wire config mapped onto the paper defaults, and the job
// admitted under the spec's priority and tenant quota. A spec identical to
// one submitted over HTTP — or through this method, or whose resolved
// arguments match a plain Submit — shares that job and its one Result.
// Failures classify via errors.Is: ErrInvalidSpec (malformed or
// unresolvable), ErrQuotaExceeded (tenant at its in-flight cap).
func (s *Service) SubmitSpec(sp JobSpec) (*Job, error) {
	return s.svc.SubmitSpec(sp)
}

// JobByID returns the job registered under the stable spec-derived ID
// (the same ID the HTTP API reports). A finished job forgotten under
// ServiceOptions.MemoLimits is not found.
func (s *Service) JobByID(id string) (*Job, bool) {
	return s.svc.JobByID(id)
}

// SubmitSweep expands a SweepSpec into its (graph × method × ε × seed)
// cells and fans them through the job queue: every cell deduplicates
// against prior jobs and sweeps via the job table and artifact store, so a
// re-submitted grid is a cache hit that never retrains. Identical grids —
// however their axes were ordered — share one deterministic sweep ID and
// one handle. Failed cells are recorded and excluded from the aggregate;
// the sweep still completes.
func (s *Service) SubmitSweep(sp *SweepSpec) (*Sweep, error) {
	return s.svc.SubmitSweep(sp)
}

// SweepByID returns the live sweep registered under its deterministic ID.
func (s *Service) SweepByID(id string) (*Sweep, bool) {
	return s.svc.SweepByID(id)
}

// SweepResultByID returns a completed sweep's aggregate — from the live
// sweep, or from the persisted sweep artifact after a restart, where the
// table is byte-identical to the one served at completion.
func (s *Service) SweepResultByID(id string) (*SweepResult, bool) {
	return s.svc.SweepResult(id)
}

// ResultRows returns rows [lo, hi) of a finished job's embedding. A job
// still in the service's job table is served from its in-memory result
// (an O(1) view on the dense tier, an O(window) copy on the spill tier),
// with or without an artifact store. Only a job the service has forgotten,
// or one another replica trained, is decoded from its on-disk artifact
// through the row-offset index — O(window·r) memory no matter how large
// the graph. The window carries the full-embedding digest (the HTTP API's
// embeddingHash), so any page can be verified against the whole matrix.
// Treat the window's rows as read-only: results are shared across
// deduplicated submissions.
func (s *Service) ResultRows(id string, lo, hi int) (*EmbeddingWindow, error) {
	return s.svc.ResultRows(id, lo, hi)
}

// CancelAll cancels every unfinished job — the fast half of a graceful
// shutdown (CancelAll, then Close).
func (s *Service) CancelAll() { s.svc.CancelAll() }

// Close stops accepting submissions and waits for in-flight jobs to
// finish (cancel them individually first for a fast shutdown).
func (s *Service) Close() { s.svc.Close() }
