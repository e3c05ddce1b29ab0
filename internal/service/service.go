// Package service is the serving layer over the trainer: a job queue that
// runs SE-PrivGEmb training requests concurrently while
// (a) bounding the total worker goroutines across all running jobs,
// (b) admitting queued jobs in priority order (higher JobSpec.Priority
// first, FIFO within a priority),
// (c) enforcing per-tenant in-flight quotas (ErrQuotaExceeded, which the
// HTTP front-end maps to 429),
// (d) deduplicating identical submissions — same graph fingerprint,
// structure preference, and result-shaping config — onto one job in the
// job table, so a popular (graph, proximity, config) trains once no
// matter how many callers ask or which transport (HTTP or Go) they
// arrive by, and
// (e) optionally persisting completed results to an on-disk artifact
// store, so a restarted process — or a job the table has forgotten under
// its Limits — is served without retraining.
//
// Submissions arrive either as live Go objects (Submit) or as declarative,
// wire-codable specs (SubmitSpec, the currency of the HTTP front-end in
// internal/server); both resolve onto the same job table, so dedup holds
// across transports.
//
// Determinism carries through unchanged: a job's output depends only on
// its (graph, proximity, config), never on queue order, priority,
// concurrency, or which submission of a deduplicated group actually
// trained.
package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/datasets"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/panicx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/replica"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/stream"
)

// ErrQuotaExceeded reports a submission rejected because its tenant is at
// its in-flight job limit. Test with errors.Is; the HTTP layer maps it to
// 429 Too Many Requests.
var ErrQuotaExceeded = errors.New("service: tenant in-flight quota exceeded")

// ErrInvalidSpec reports a JobSpec that failed validation or resolution
// (unknown dataset or measure, malformed edge list, missing file, bad
// hyperparameters). The HTTP layer maps it to 400 Bad Request.
var ErrInvalidSpec = errors.New("service: invalid job spec")

// ErrClosed reports a submission after Close. The HTTP layer maps it to
// 503 Service Unavailable.
var ErrClosed = errors.New("service: submit after Close")

// Options configures a Service.
type Options struct {
	// MaxWorkers bounds the total training-worker slots across all
	// concurrently running jobs; 0 defaults to GOMAXPROCS. A job consumes
	// max(1, min(cfg.Workers, MaxWorkers)) slots while it runs, so a
	// single wide job can never starve the service of slots it could
	// legally grant.
	MaxWorkers int
	// Memo supplies the cache of simulated datasets that spec resolution
	// reads; nil gets the service a private one. It holds no proximity
	// and no training results: those live only in the job table, bounded
	// by MemoLimits.
	Memo *experiments.Memo
	// MemoLimits bounds the finished jobs the job table keeps in memory,
	// and with them their trained embeddings (see Limits). The zero value
	// keeps every finished job for the service's lifetime.
	MemoLimits Limits
	// TenantInflight caps how many unfinished jobs one tenant may have
	// created at a time; further SubmitSpec calls fail with
	// ErrQuotaExceeded until one finishes. 0 disables quotas. A below-cap
	// tenant adopting an existing deduplicated job is not charged (no new
	// work is admitted) — but a tenant AT its cap is refused outright,
	// even for a spec that would have deduplicated: the quota check runs
	// before resolution so a rejected request cannot cost the server
	// anything, and dedup cannot be established without resolving. Poll
	// by job ID rather than resubmitting.
	TenantInflight int
	// GraphDir is the root directory for JobSpec file graph sources.
	// Empty rejects file sources outright.
	GraphDir string
	// ArtifactDir, when non-empty, persists every completed training
	// result as a gob artifact (chunked checkpoint framing) and serves
	// identical future submissions from disk across process restarts.
	ArtifactDir string
	// MaxTrainingBytes caps the resident training-state footprint a single
	// job may claim: the dense 2·|V|·r·8 weight bytes for in-memory runs,
	// or the job's MemoryBudget when it selects the spill tier. Jobs over
	// the cap are rejected at admission with ErrInvalidSpec (→ 400), with
	// an error that names the budget that would make the job admissible —
	// the server-side lever that turns "this graph is too big" into "set
	// memoryBudget and resubmit". 0 disables the cap.
	MaxTrainingBytes int64
	// Replica, when non-nil, makes this service one member of a
	// shared-nothing replica set over ArtifactDir (which must then be
	// set): before training a job, the service leases its ownership
	// through the manager, trains only when it wins, and otherwise
	// follows — polling the shared store until the owner's artifact
	// lands (or the owner's lease expires, at which point it contends
	// for takeover). Every replica serves any job's rows straight off
	// the shared store, owner or not.
	Replica *replica.Manager
}

// Limits bounds result retention for serving use, where the process is
// long-lived and the request stream unbounded — without them every
// distinct job ever submitted pins its embedding forever: Win alone, a
// dense |V|×r·8 bytes, or on the spill tier its spill file with no slab
// resident (Wout is dropped once the artifact is written).
// Only finished jobs are ever forgotten: an in-flight job and the
// submitters deduplicated onto it are never split apart. A forgotten job
// leaves JobByID; its ID is then answered from the artifact store when
// there is one, and an identical resubmission loads the artifact (or, with
// no store, trains afresh). A *Job handle a caller still holds keeps its
// result.
type Limits struct {
	// MaxResults caps the finished jobs kept; beyond it the least recently
	// used one — by completion or adoption — is forgotten. 0 means
	// unbounded.
	MaxResults int
	// ResultTTL forgets a finished job this long after its last use. 0
	// means no expiry.
	ResultTTL time.Duration
}

// Status is a Job's lifecycle state.
type Status int32

const (
	// StatusQueued: submitted, waiting for worker slots.
	StatusQueued Status = iota
	// StatusRunning: training (or waiting on a deduplicated twin's run).
	StatusRunning
	// StatusDone: finished; Result returns the embedding.
	StatusDone
	// StatusFailed: finished with an error.
	StatusFailed
	// StatusCanceled: canceled; Result may hold a partial, resumable run.
	StatusCanceled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int32(s))
	}
}

// Service queues, deduplicates, and runs training jobs. Construct with New;
// the zero value is not usable.
type Service struct {
	opts  Options
	store *Store
	// lease is the replica-set ownership manager (nil outside replica
	// mode); events fans per-job progress out to SSE subscribers.
	lease  *replica.Manager
	events *stream.Broker

	mu      sync.Mutex
	free    int        // unclaimed worker slots (of opts.MaxWorkers)
	pending waiterHeap // jobs waiting for slots, priority-ordered
	seq     uint64     // arrival order, tie-breaks equal priorities
	jobs    map[experiments.ResultKey]*Job
	byID    map[string]*Job
	tenants map[string]int // unfinished jobs per tenant
	sweeps  map[string]*Sweep
	closed  bool
	wg      sync.WaitGroup
	// now is the clock behind result retention (tests inject a fake one).
	now func() time.Time
	// beforeAcquire, when set, runs in trainOrFollow between the store
	// check and the lease Acquire (tests land a peer's artifact there).
	beforeAcquire func(*Job)
	// afterTrain, when set, runs in train on each trained result, done or
	// canceled, before its write-back and digest (tests break the
	// result's spill tier there).
	afterTrain func(*core.Result)

	// trainings counts actual Method.Train invocations — NOT submissions, dedup
	// adoptions, or artifact loads. The observable half of the dedup
	// contract: a resubmitted sweep asserting "zero retraining" asserts
	// this counter.
	trainings atomic.Uint64
}

// Trainings returns how many training runs this service has actually
// executed (dedup adoptions and artifact hits excluded). A re-served
// result of any kind leaves it unchanged, which is what makes it the right
// assertion for cache-hit tests.
func (s *Service) Trainings() uint64 { return s.trainings.Load() }

// New returns a Service ready to accept submissions. It panics only on
// unusable ArtifactDir (fail fast at construction, not mid-job); every
// runtime failure is reported per job.
func New(opts Options) *Service {
	if opts.MaxWorkers < 1 {
		opts.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.Memo == nil {
		opts.Memo = experiments.NewMemo()
	}
	s := &Service{
		opts:    opts,
		now:     time.Now,
		free:    opts.MaxWorkers,
		jobs:    make(map[experiments.ResultKey]*Job),
		byID:    make(map[string]*Job),
		tenants: make(map[string]int),
		sweeps:  make(map[string]*Sweep),
	}
	s.events = stream.NewBroker()
	if opts.ArtifactDir != "" {
		store, err := NewStore(opts.ArtifactDir)
		if err != nil {
			panic(fmt.Sprintf("service: artifact store: %v", err))
		}
		s.store = store
		// Startup janitor: clear expired leases (takeover hygiene — a
		// replica restarting after a crash must not be blocked by its own
		// corpse) and crashed writers' tmp partials. Best effort; a
		// read-only directory degrades to no sweeping, not no serving.
		_, _, _ = store.Sweep(startupSweepAge)
	}
	if opts.Replica != nil {
		if s.store == nil {
			panic("service: Options.Replica requires ArtifactDir (the lease substrate is the shared store)")
		}
		s.lease = opts.Replica
	}
	return s
}

// waiter is one queued job's claim on worker slots. priority, granted and
// index are guarded by the Service mutex; ready is closed exactly once,
// under that mutex, when the claim is granted.
type waiter struct {
	j        *Job
	n        int
	priority int
	seq      uint64
	index    int
	granted  bool
	ready    chan struct{}
}

// waiterHeap orders pending claims: higher priority first, FIFO within a
// priority. It implements container/heap.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return w
}

// dispatchLocked grants slots strictly in heap order: the head claim waits
// until its full width fits, and nothing behind it may jump the queue (a
// lower-priority narrow job must not starve a higher-priority wide one).
// Claims are clamped to MaxWorkers at submission, so the head always
// eventually fits. Callers hold s.mu.
func (s *Service) dispatchLocked() {
	for len(s.pending) > 0 && s.pending[0].n <= s.free {
		w := heap.Pop(&s.pending).(*waiter)
		w.granted = true
		if w.j != nil {
			w.j.waiter = nil
		}
		s.free -= w.n
		close(w.ready)
	}
}

// scorePriority is the admission priority of sweep-cell scoring, above
// every job: a scored cell lets go of its result, so scoring ahead of
// queued training bounds the finished results awaiting evaluation.
const scorePriority = math.MaxInt32

// acquire claims n worker slots at j's (possibly boosted — see submit's
// adoption path) priority — or, for a nil j, at scorePriority — or returns
// ctx.Err if the job is canceled while queued. A cancellation that races
// an in-flight grant returns the slots and still reports the cancel — a
// canceled job must never start training.
func (s *Service) acquire(ctx context.Context, j *Job, n int) error {
	w := &waiter{j: j, n: n, priority: scorePriority, ready: make(chan struct{})}
	s.mu.Lock()
	if j != nil {
		w.priority = int(j.priority.Load())
		j.waiter = w
	}
	s.seq++
	w.seq = s.seq
	heap.Push(&s.pending, w)
	s.dispatchLocked()
	s.mu.Unlock()
	select {
	case <-w.ready:
		if err := ctx.Err(); err != nil {
			s.release(n)
			return err
		}
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		defer s.mu.Unlock()
		if w.granted {
			// The grant won the race; undo it.
			s.free += w.n
			s.dispatchLocked()
		} else {
			heap.Remove(&s.pending, w.index)
			if w.j != nil {
				w.j.waiter = nil
			}
		}
		return ctx.Err()
	}
}

// release returns n slots and re-runs admission.
func (s *Service) release(n int) {
	s.mu.Lock()
	s.free += n
	s.dispatchLocked()
	s.mu.Unlock()
}

// Job is the handle to one submitted training run.
type Job struct {
	id     string
	key    experiments.ResultKey
	tenant string
	// priority is atomic because an adoption can boost it (see submit)
	// while the HTTP layer reads it for display.
	priority atomic.Int32
	// waiter is the job's queued slot claim, nil unless waiting; guarded
	// by the Service mutex (adoption boosts re-heap through it).
	waiter *waiter
	cancel context.CancelFunc
	done   chan struct{}

	status atomic.Int32
	// canceled is set synchronously by Cancel, ahead of the (async)
	// status transition, so Submit's dedup never hands out a job that is
	// already doomed.
	canceled atomic.Bool
	stats    atomic.Value // core.EpochStats of the latest completed epoch

	// finished and lastUse drive retention under Limits; guarded by the
	// Service mutex. finished is set when the job reaches a terminal
	// status; lastUse is stamped at completion and at every adoption.
	finished bool
	lastUse  time.Time

	// holders counts the independent submissions deduplicated onto this
	// job: 1 at creation, +1 per adoption. A sweep canceling its cells
	// skips any job with other holders — cancellation must not reach
	// through dedup into work someone else is still waiting on.
	holders atomic.Int32

	// Lifecycle timeline. submittedAt is set once before the run goroutine
	// starts; startedAt/finishedAt are atomically published at the status
	// transitions they mirror (startedAt stays zero for a job canceled
	// while queued).
	submittedAt time.Time
	startedAt   atomic.Int64 // UnixNano; 0 = not started
	finishedAt  atomic.Int64 // UnixNano; 0 = not finished

	// res/err are written once, before done is closed.
	res *core.Result
	err error

	// hashOnce caches the full-embedding digest: clients paging through a
	// large result re-fetch the hash with every window, and recomputing
	// an O(|V|·r) FNV per page would turn pagination's memory win into a
	// CPU loss.
	hashOnce sync.Once
	hashVal  uint64
	hashOK   bool
}

// ID returns the job's stable identifier: a pure function of its
// deduplication key, so the same logical job carries the same ID over
// every transport, process, and resubmission.
func (j *Job) ID() string { return j.id }

// Key returns the job's deduplication key.
func (j *Job) Key() experiments.ResultKey { return j.key }

// Tenant returns the tenant recorded at submission ("" for the Go API).
func (j *Job) Tenant() string { return j.tenant }

// Method returns the canonical name of the training method this job runs.
func (j *Job) Method() string { return keyMethod(j.key) }

// Priority returns the job's effective admission priority: the highest
// priority any deduplicated submitter asked for (adoption boosts, never
// lowers, so a high-priority caller is not stuck behind the original
// submitter's patience).
func (j *Job) Priority() int { return int(j.priority.Load()) }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status { return Status(j.status.Load()) }

// Progress returns the latest per-epoch stats and whether any epoch has
// completed yet. For a deduplicated job the stats come from whichever
// submission is actually training.
func (j *Job) Progress() (core.EpochStats, bool) {
	st, ok := j.stats.Load().(core.EpochStats)
	return st, ok
}

// Done returns a channel closed when the job finishes (any terminal status).
func (j *Job) Done() <-chan struct{} { return j.done }

// Holders returns how many independent submissions this job currently
// serves (1 + adoptions).
func (j *Job) Holders() int { return int(j.holders.Load()) }

// Timing returns the job's lifecycle timeline: when it was accepted, when
// it acquired worker slots, and when it reached a terminal status. started
// and finished are zero until the corresponding transition happens.
func (j *Job) Timing() (submitted, started, finished time.Time) {
	submitted = j.submittedAt
	if ns := j.startedAt.Load(); ns != 0 {
		started = time.Unix(0, ns)
	}
	if ns := j.finishedAt.Load(); ns != 0 {
		finished = time.Unix(0, ns)
	}
	return submitted, started, finished
}

// Cancel requests cancellation. The training loop stops at the next epoch
// boundary with a partial, resumable Result. Canceling a job cancels the
// underlying run for every submission deduplicated onto it.
func (j *Job) Cancel() {
	j.canceled.Store(true)
	j.cancel()
}

// Wait blocks until the job finishes or ctx is done. On job completion it
// returns Result's values. A job canceled while RUNNING returns its
// partial result (non-nil, with Result.Stopped == core.StopCanceled and a
// resumable checkpoint) and no error — matching core.TrainContext; a job
// canceled while still QUEUED never trained, so it returns
// (nil, context.Canceled).
//
// The returned Result is shared by every submission deduplicated onto
// this job: treat it as read-only. It keeps the published embedding
// only: Model.Wout is nil (core.Result.Shrink), so Model.Score and
// Model.Loss do not apply; the artifact, when there is a store, still
// stores Wout. A canceled job's Checkpoint keeps its own copy of Wout.
// Scoring and evaluation only ever read the embedding.
func (j *Job) Wait(ctx context.Context) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the job's outcome, Win without Wout as Wait describes;
// it must only be called after Done is closed (use Wait otherwise).
func (j *Job) Result() (*core.Result, error) {
	select {
	case <-j.done:
		return j.res, j.err
	default:
		panic("service: Result called before the job finished")
	}
}

// EmbeddingHash returns the FNV-1a digest of the job's full embedding
// (mathx.DigestFloat64s over the row-major float64 bits of Win), false if
// the job has not finished, finished without a result, or keeps a spilled
// Win whose rows could not be read. The digest is computed once per job
// and cached: every row window served from this job reports it, so a
// client can verify any page against the full matrix.
func (j *Job) EmbeddingHash() (uint64, bool) {
	select {
	case <-j.done:
	default:
		return 0, false
	}
	j.hashOnce.Do(func() {
		if j.res != nil && j.res.Model != nil {
			// A failed spill read copied zeros: no hash (the error is sticky).
			h := mathx.DigestMat(j.res.Model.Win)
			if mathx.MatErr(j.res.Model.Win) == nil {
				j.hashVal, j.hashOK = h, true
			}
		}
	})
	return j.hashVal, j.hashOK
}

// seedHash records Win's digest, computed while persisting the job's
// artifact or verified while adopting it from the store, as the job's
// EmbeddingHash, so the O(|V|·r) digest runs once per job. It must be
// called before done closes, while no reader can have run the Once.
func (j *Job) seedHash(h uint64) {
	j.hashOnce.Do(func() { j.hashVal, j.hashOK = h, true })
}

// JobID returns the stable job identifier for a deduplication key (the ID
// a submission with that key would receive). The default method keeps the
// pre-registry hash preimage, so every job ID (and on-disk artifact) minted
// before methods existed still resolves to the same sepriv job; non-default
// methods prepend their name, which is what keeps two methods over one
// (graph, proximity, config) from ever colliding.
func JobID(key experiments.ResultKey) string {
	h := fnv.New64a()
	if m := keyMethod(key); m != methods.Default {
		fmt.Fprintf(h, "%s|", m)
	}
	fmt.Fprintf(h, "%016x|%s|%016x", key.Graph, key.Proximity, key.Config)
	return fmt.Sprintf("j%016x", h.Sum64())
}

// keyMethod returns the key's method, normalizing the pre-registry empty
// field to the default method so old and new keys mean the same job.
func keyMethod(key experiments.ResultKey) string {
	if key.Method == "" {
		return methods.Default
	}
	return key.Method
}

// JobByID returns the job currently registered under id. After a failed or
// canceled job is resubmitted, the ID resolves to its replacement (the
// superseded handle keeps working for callers that hold it). A finished
// job the table has forgotten under its Limits is not found.
func (s *Service) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if ok && s.expiredLocked(j) {
		s.forgetLocked(j)
		return nil, false
	}
	return j, ok
}

// expiredLocked reports whether j is a finished job idle past the TTL.
func (s *Service) expiredLocked(j *Job) bool {
	ttl := s.opts.MemoLimits.ResultTTL
	return ttl > 0 && j.finished && s.now().Sub(j.lastUse) > ttl
}

// forgetLocked drops j from the job table (but not a replacement that
// already took over its key).
func (s *Service) forgetLocked(j *Job) {
	if s.jobs[j.key] == j {
		delete(s.jobs, j.key)
	}
	if s.byID[j.id] == j {
		delete(s.byID, j.id)
	}
}

// evictLocked enforces the Limits on the job table, sparing keep (the job
// being used right now): finished jobs past the TTL go first, then the
// least recently used finished jobs beyond MaxResults. In-flight jobs are
// never candidates, so MaxResults bounds retained results, not
// concurrent training.
func (s *Service) evictLocked(keep *Job) {
	lim := s.opts.MemoLimits
	if lim.MaxResults <= 0 && lim.ResultTTL <= 0 {
		return
	}
	finished := 0
	for _, j := range s.jobs {
		switch {
		case !j.finished:
		case j != keep && s.expiredLocked(j):
			s.forgetLocked(j)
		default:
			finished++
		}
	}
	for lim.MaxResults > 0 && finished > lim.MaxResults {
		var oldest *Job
		for _, j := range s.jobs {
			if j.finished && j != keep && (oldest == nil || j.lastUse.Before(oldest.lastUse)) {
				oldest = j
			}
		}
		if oldest == nil {
			return
		}
		s.forgetLocked(oldest)
		finished--
	}
}

// ResultMeta returns the metadata record of the job's finished result —
// the same record a replica that never ran the job decodes from the
// artifact header (Store.MetaByID), so a result response reads alike
// wherever it is served. The shape comes from the model without
// materializing a spilled embedding, and the hash is the cached
// EmbeddingHash. It fails for a job that has not finished, returns the
// job's error for one that finished without a result, and the spill
// tier's error for one whose spilled Win cannot be read.
func (j *Job) ResultMeta() (*ArtifactMeta, error) {
	select {
	case <-j.done:
	default:
		return nil, fmt.Errorf("service: job %s has not finished", j.id)
	}
	res, err := j.res, j.err
	if err != nil {
		return nil, err
	}
	if res == nil || res.Model == nil {
		return nil, fmt.Errorf("service: job %s finished without a result", j.id)
	}
	hash, ok := j.EmbeddingHash()
	if !ok {
		return nil, mathx.MatErr(res.Model.Win)
	}
	return &ArtifactMeta{
		JobID:         j.id,
		Key:           j.key,
		Method:        j.Method(),
		Nodes:         res.Model.Win.NumRows(),
		Dim:           res.Model.Win.NumCols(),
		Epochs:        res.Epochs,
		Stopped:       res.Stopped,
		EpsilonSpent:  res.EpsilonSpent,
		DeltaSpent:    res.DeltaSpent,
		EmbeddingHash: hash,
	}, nil
}

// ResultRows returns rows [lo, hi) of a finished job's embedding — the one
// row-window path, whichever process trained the job. A job in the table
// is served from its in-memory result, which is authoritative (an O(1)
// view on the dense tier, an O(window) copy on the spill tier). A job this
// process never ran, or has forgotten, is read from the artifact store by
// ID, decoded through the artifact's row-offset index at O(window·r)
// memory regardless of |V|. Either way the window carries the
// full-embedding digest, so callers can verify a page against the hash
// the whole-result API reports. The window's matrix may alias the shared
// Result: treat it as read-only.
func (s *Service) ResultRows(id string, lo, hi int) (*core.EmbeddingWindow, error) {
	j, ok := s.JobByID(id)
	if !ok {
		if s.store == nil {
			return nil, fmt.Errorf("service: unknown job %q", id)
		}
		return s.store.LoadRowsByID(id, lo, hi)
	}
	meta, err := j.ResultMeta()
	if err != nil {
		return nil, err
	}
	m, err := j.res.Rows(lo, hi)
	if err != nil {
		return nil, err
	}
	return &core.EmbeddingWindow{
		Lo: lo, Hi: hi,
		TotalRows: meta.Nodes,
		Dim:       meta.Dim,
		Rows:      m,
		FullHash:  meta.EmbeddingHash,
	}, nil
}

// Submit enqueues a training run of the default method (sepriv) at default
// priority with no tenant and returns its Job — the in-process Go API. If
// an identical submission — equal method, graph fingerprint, proximity
// name, and result-shaping config (core.Config.Hash, which ignores
// Workers) — is already queued, running, or completed, that existing Job is
// returned instead of starting a duplicate; failed or canceled predecessors
// are replaced by a fresh run.
func (s *Service) Submit(g *graph.Graph, prox proximity.Proximity, cfg core.Config) (*Job, error) {
	return s.SubmitMethod(methods.Default, g, prox, cfg)
}

// SubmitMethod is Submit for an explicit registry method ("sepriv",
// "dpggan", "dpgvae", "gap", "progap"). The method is part of the
// deduplication key, so distinct methods over one (graph, proximity,
// config) are distinct jobs with distinct IDs and artifacts. Unknown
// methods and configs the method rejects (e.g. a non-positive privacy
// budget for a baseline) fail with ErrInvalidSpec.
func (s *Service) SubmitMethod(method string, g *graph.Graph, prox proximity.Proximity, cfg core.Config) (*Job, error) {
	return s.submit(method, g, prox, cfg, 0, "")
}

// SubmitSpec resolves a declarative JobSpec — graph source, proximity by
// name, wire config — and enqueues it with the spec's priority and tenant.
// The single submission currency of the serving surface: the HTTP
// front-end and Go callers both land here, so identical specs deduplicate
// across transports onto one training run. Resolution reuses the memo for
// simulated datasets, and the job trains on the lazy measure exactly as a
// Submit of the same arguments does.
func (s *Service) SubmitSpec(sp spec.JobSpec) (*Job, error) {
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	// Admission pre-checks BEFORE resolution: a rejected request must not
	// cost the server anything durable — resolving first would let a
	// tenant at its quota (or a caller racing Close) grow the memo's
	// graph cache with every 429/503 it is about to receive. The
	// authoritative re-check happens in submit under the same mutex; this
	// one can spuriously admit during a race, never spuriously charge.
	// The trade-off: a tenant at its cap is refused even a deduplicating
	// resubmission, because telling dedup from new work requires the
	// resolved graph — admission control wins over adoption convenience.
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return nil, ErrClosed
	case s.opts.TenantInflight > 0 && s.tenants[sp.Tenant] >= s.opts.TenantInflight:
		n := s.tenants[sp.Tenant]
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q already has %d unfinished jobs",
			ErrQuotaExceeded, sp.Tenant, n)
	}
	s.mu.Unlock()
	if err := s.checkDatasetCap(sp.Graph, sp.Method, sp.Config); err != nil {
		return nil, err
	}
	g, prox, cfg, err := s.resolve(sp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return s.submit(sp.Method, g, prox, cfg, sp.Priority, sp.Tenant)
}

// checkDatasetCap is memory admission before resolution: a dataset's node
// count is known before it is generated, and the memory cap depends on
// nothing else, so an oversized dataset source is refused before it costs
// a generation and a memo entry. Other sources, and errors in the method
// or config, pass here and are caught by resolve and submit, which also
// re-check the cap on the resolved graph.
func (s *Service) checkDatasetCap(src spec.GraphSource, method string, cs spec.ConfigSpec) error {
	ds := src.Dataset
	if ds == nil {
		return nil
	}
	n, nerr := datasets.Nodes(ds.Name, ds.Scale)
	cfg, cerr := cs.CoreConfig()
	mname, merr := methods.Canonical(method)
	if nerr != nil || cerr != nil || merr != nil {
		return nil
	}
	return s.checkMemoryCap(mname, n, cfg)
}

// checkMemoryCap is per-job memory admission: a job's resident training
// state on a graph of the given node count — its MemoryBudget on the
// spill tier, the dense 2·|V|·r·8 bytes otherwise — must fit the server's
// cap. Rejecting at submission (not at training time) keeps an oversized
// graph a 400 with an actionable remedy: the error names the spill budget
// that would make the same spec admissible for the default method.
func (s *Service) checkMemoryCap(mname string, nodes int, cfg core.Config) error {
	limit := s.opts.MaxTrainingBytes
	need := cfg.TrainingStateBytes(nodes)
	if limit <= 0 || need <= limit {
		return nil
	}
	if min := cfg.MinMemoryBudget(nodes); mname == methods.Default && min <= limit {
		return fmt.Errorf("%w: training state (%d bytes) exceeds the server's %d-byte cap; set config.memoryBudget between %d and %d to train under the cap",
			ErrInvalidSpec, need, limit, min, limit)
	}
	return fmt.Errorf("%w: training state (%d bytes) exceeds the server's %d-byte cap",
		ErrInvalidSpec, need, limit)
}

// submit is the shared admission path of both transports, and both train
// on the proximity they hand in. The method name is canonicalized into the
// key here, so "" and "sepriv" — and any future alias — land on one job.
// The method's config validation runs here too, on the resolved graph: a
// config the trainer would reject is a 400, not a job that fails at
// training time.
func (s *Service) submit(method string, g *graph.Graph, prox proximity.Proximity, cfg core.Config, priority int, tenant string) (*Job, error) {
	mname, err := methods.Canonical(method)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if err := methods.ValidateConfig(mname, g, cfg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if err := s.checkMemoryCap(mname, g.NumNodes(), cfg); err != nil {
		return nil, err
	}
	key := experiments.ResultKey{
		Method:    mname,
		Graph:     g.Fingerprint(),
		Proximity: prox.Name(),
		Config:    cfg.Hash(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	// Expire idle finished jobs first, so an expired twin is a miss.
	s.evictLocked(nil)
	if j, ok := s.jobs[key]; ok {
		st := j.Status()
		// canceled.Load() covers the window between a Cancel call and the
		// run goroutine observing it: a doomed job must not adopt new
		// submitters. Adoption is quota-free — no new training starts —
		// but it boosts a still-queued job to the adopter's priority, so
		// an urgent caller is never stuck behind the first submitter's
		// patience.
		if st != StatusFailed && st != StatusCanceled && !j.canceled.Load() {
			j.holders.Add(1)
			j.lastUse = s.now()
			if priority > int(j.priority.Load()) {
				j.priority.Store(int32(priority))
				if w := j.waiter; w != nil {
					w.priority = priority
					heap.Fix(&s.pending, w.index)
				}
			}
			return j, nil
		}
	}
	if s.opts.TenantInflight > 0 && s.tenants[tenant] >= s.opts.TenantInflight {
		return nil, fmt.Errorf("%w: tenant %q already has %d unfinished jobs",
			ErrQuotaExceeded, tenant, s.tenants[tenant])
	}
	s.tenants[tenant]++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:          JobID(key),
		key:         key,
		tenant:      tenant,
		cancel:      cancel,
		done:        make(chan struct{}),
		submittedAt: time.Now(),
	}
	j.holders.Store(1)
	j.priority.Store(int32(priority))
	s.jobs[key] = j
	s.byID[j.id] = j
	s.wg.Add(1)
	go s.run(ctx, j, g, prox, cfg)
	return j, nil
}

// Close stops accepting submissions and waits for every in-flight job to
// finish. It does not cancel them; call Cancel on individual jobs first for
// a fast shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}

// CancelAll cancels every job that has not finished yet (the fast-shutdown
// half of a graceful stop: CancelAll, then Close).
func (s *Service) CancelAll() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.done:
		default:
			j.Cancel()
		}
	}
}

// slotsFor returns how many worker slots a config consumes.
func (s *Service) slotsFor(cfg core.Config) int {
	n := cfg.Workers
	if n < 1 {
		n = 1
	}
	if n > s.opts.MaxWorkers {
		n = s.opts.MaxWorkers
	}
	return n
}

// finish settles a job's bookkeeping after its terminal status is set:
// the tenant's in-flight count, and retention — a completion is a use, so
// a job slower than the TTL is not expired at its first resubmission.
func (s *Service) finish(j *Job) {
	s.mu.Lock()
	if s.tenants[j.tenant]--; s.tenants[j.tenant] <= 0 {
		delete(s.tenants, j.tenant)
	}
	j.finished = true
	j.lastUse = s.now()
	s.evictLocked(j)
	s.mu.Unlock()
}

// run executes one job: wait for slots (priority-ordered), train —
// consulting the artifact store first and persisting fresh completions —
// and publish the outcome.
func (s *Service) run(ctx context.Context, j *Job, g *graph.Graph, prox proximity.Proximity, cfg core.Config) {
	defer s.wg.Done()
	// The terminal stream event is published once done has closed: every
	// exit path below has stored its terminal status by then, SSE
	// subscribers see the event no matter which path ended the job, and a
	// subscriber that sees it can read the result at once. It runs after
	// the recover below, so it reads only the job's cached state: a done
	// job's digest was taken by train or adopt, never here.
	defer s.publishTerminal(j)
	defer close(j.done)
	defer s.finish(j)
	// The finish stamp lands before done closes (defers run LIFO), so a
	// waiter woken by Done always observes a non-zero finishedAt.
	defer func() { j.finishedAt.Store(time.Now().UnixNano()) }()
	// A panic in the job — on this goroutine, or re-raised here from the
	// training pools — fails this job only, and the service goes on
	// serving; the deferred bookkeeping above still runs. The job's error
	// carries the panic's text, and its stack — the pool goroutine's when
	// a pool re-raised it — goes to the standard logger, as net/http does
	// for a panicking handler.
	defer func() {
		if r := recover(); r != nil {
			p := panicx.Recovered(r)
			log.Printf("service: job %s panicked: %v\n%s", j.id, p.Value, p.Stack)
			j.err = fmt.Errorf("service: job panicked: %w", p)
			j.status.Store(int32(StatusFailed))
		}
	}()
	n := s.slotsFor(cfg)
	if err := s.acquire(ctx, j, n); err != nil {
		// Canceled while queued: no training happened, so there is no
		// partial result to hand back — unlike a running-job cancel.
		j.err = err
		j.status.Store(int32(StatusCanceled))
		return
	}
	defer s.release(n)
	// The job trains with exactly the worker count it holds slots for —
	// this is what makes MaxWorkers a real bound on goroutines, not just
	// an admission count. Safe: Workers is excluded from Config.Hash
	// because it never changes a result bit.
	cfg.Workers = n
	j.startedAt.Store(time.Now().UnixNano())
	j.status.Store(int32(StatusRunning))
	m, err := methods.Get(j.key.Method)
	if err != nil {
		// Unreachable after submit's canonicalization; belt-and-braces for a
		// key restored from elsewhere.
		j.err = err
		j.status.Store(int32(StatusFailed))
		return
	}
	// The job's ctx flows into the training loop (epoch-granular stop) and
	// into a follower's lease poll.
	res, err := s.trainOrFollow(ctx, j, m, g, prox, cfg)
	j.res, j.err = res, err
	switch {
	case err != nil:
		// Includes a cancel while following a peer's lease: like a queued
		// cancel, no training of ours happened, so the error is ctx.Err()
		// and there is no partial result. Also a canceled run whose spill
		// write-back then failed (train): the error is the spill tier's,
		// and res holds the resumable Checkpoint with no Model.
		if ctx.Err() != nil {
			j.status.Store(int32(StatusCanceled))
		} else {
			j.status.Store(int32(StatusFailed))
		}
	case res.Stopped == core.StopCanceled:
		j.status.Store(int32(StatusCanceled))
	default:
		j.status.Store(int32(StatusDone))
	}
}

// trainOrFollow produces the job's result under the replica-set ownership
// protocol. Without a lease manager it trains directly (the single-
// instance path, store-cached as before). With one, the loop per
// iteration: serve the artifact if a peer already landed it; try to
// acquire the job's lease and, if this replica wins, check the store once
// more (a peer may have landed the artifact and released the lease since
// the first check) and train only on a second miss (heartbeating for the
// duration, persisting the artifact BEFORE releasing so no peer can
// observe a gap between "lease gone" and "result present"); otherwise
// follow — sleep a poll interval and re-check. A crashed owner stops
// heartbeating, its lease expires, and the next iteration's Acquire takes
// the job over, which is what makes every submitted spec eventually train
// exactly once on exactly one live replica.
func (s *Service) trainOrFollow(ctx context.Context, j *Job, m methods.Method, g *graph.Graph, prox proximity.Proximity, cfg core.Config) (*core.Result, error) {
	for {
		if s.store != nil {
			if cached, ok := s.adopt(j); ok {
				return cached, nil
			}
		}
		if s.lease == nil {
			return s.train(ctx, j, m, g, prox, cfg)
		}
		if s.beforeAcquire != nil {
			s.beforeAcquire(j)
		}
		owned, err := s.lease.Acquire(j.id)
		if err == nil && owned {
			// A peer may have saved the artifact and released its lease
			// between the Load above and this Acquire: the lease is free,
			// but the job is already trained. Check again under the lease.
			if cached, ok := s.adopt(j); ok {
				s.lease.Release(j.id)
				return cached, nil
			}
			// train persists the artifact before returning, so the
			// release never exposes a trained-but-unpublished job. The
			// heartbeat stops and the lease goes even if train panics.
			stop := s.lease.KeepAlive(j.id)
			defer s.lease.Release(j.id)
			defer stop()
			return s.train(ctx, j, m, g, prox, cfg)
		}
		// Follower: a peer owns the job (or the lease directory hiccuped
		// — an I/O error is retried on the same cadence rather than
		// failing a job a peer may be happily training).
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(s.lease.PollInterval()):
		}
	}
}

// train runs the actual training, publishing per-epoch progress to both
// the polled job view and the event stream, and persists completed
// results to the store before returning. It takes the digest of Win for
// every finished training, with or without a store, so the read of a
// spill tier that can no longer be read panics or fails here, under
// run's recover, and not in publishTerminal. Every result, finished or
// canceled, is shrunk to what the job table keeps (DESIGN §15): Win,
// with no slab resident on the spill tier, and no Wout. A spilled result's
// dirty rows are written back first, then the digest and the artifact
// write (which stores Wout too) read its resident slabs, and last the
// shrink drops them and Wout with no I/O.
func (s *Service) train(ctx context.Context, j *Job, m methods.Method, g *graph.Graph, prox proximity.Proximity, cfg core.Config) (*core.Result, error) {
	s.trainings.Add(1)
	res, err := m.Train(ctx, g, prox, cfg, core.Hooks{
		Epoch: func(st core.EpochStats) {
			j.stats.Store(st)
			s.events.Publish(j.id, spec.JobEvent{Type: "epoch", Progress: spec.ProgressFrom(st)})
		},
	})
	if err != nil {
		return res, err
	}
	if s.afterTrain != nil {
		s.afterTrain(res)
	}
	done := res.Stopped != core.StopCanceled
	// The write-back comes before anything is published, so a failed one
	// fails the job before its digest is taken or its artifact written.
	flushed := res.FlushSpill() == nil
	var digest uint64
	if done && flushed {
		// The artifact header and the job share one digest of Win.
		digest = mathx.DigestMat(res.Model.Win)
		if s.store != nil {
			// Best-effort persistence: a failed write degrades restart
			// warmth, never the in-flight response.
			_ = s.store.save(j.key, res, digest)
		}
	}
	// Shrink returns the spill tier's sticky error: the write-back above
	// failed, or a read by the digest or the artifact write did (the
	// store commits no artifact then). Neither the rows nor a digest can
	// be trusted, so the job fails with its spill files freed now. A
	// canceled job keeps its Checkpoint, a dense copy taken before the
	// write-back, so it stays resumable; its Model is dropped. Otherwise
	// every row is clean and the shrink only drops slabs and Wout.
	if serr := res.Shrink(); serr != nil {
		res.CloseSpill()
		err := fmt.Errorf("core: spill tier: %w", serr)
		if done {
			return nil, err
		}
		partial := *res
		partial.Model = nil
		return &partial, err
	}
	if done {
		j.seedHash(digest)
	}
	return res, nil
}

// adopt loads j's persisted result from the store, seeding the job's
// embedding hash from the header digest the load verified. The load
// decodes and verifies both matrices; the job keeps Win only, as a
// trained one does.
func (s *Service) adopt(j *Job) (*core.Result, bool) {
	res, digest, ok := s.store.load(j.key)
	if ok {
		j.seedHash(digest)
		res.Shrink() // dense: drops Wout, cannot fail
	}
	return res, ok
}

// publishTerminal emits the job's exactly-once terminal stream event,
// mirroring the terminal status the polled view reports. Done events
// carry the full-embedding digest so a streaming client can hand off to
// the row-window API and verify pages without another round trip.
func (s *Service) publishTerminal(j *Job) {
	ev := spec.JobEvent{Status: j.Status().String()}
	switch j.Status() {
	case StatusDone:
		ev.Type = "done"
		if h, ok := j.EmbeddingHash(); ok {
			ev.EmbeddingHash = fmt.Sprintf("%016x", h)
		}
	case StatusFailed:
		ev.Type = "failed"
		if j.err != nil {
			ev.Error = j.err.Error()
		}
	case StatusCanceled:
		ev.Type = "canceled"
		if j.err != nil {
			ev.Error = j.err.Error()
		}
	default:
		// Not terminal (unreachable from run's exit paths); publish
		// nothing rather than a lying event.
		return
	}
	s.events.Publish(j.id, ev)
}

// Subscribe returns the live event stream of a job by ID: a replay of the
// latest epoch event (if any), then events as they happen, ending with
// the terminal event, after which the channel closes. Always call the
// cancel function. Subscribing to an ID this process has never seen
// yields a stream that emits nothing until such a job is submitted — the
// HTTP layer pairs this with the store-polling path for jobs owned
// elsewhere in a replica set.
func (s *Service) Subscribe(jobID string) (<-chan spec.JobEvent, func()) {
	return s.events.Subscribe(jobID)
}

// ArtifactMeta returns the persisted result metadata for a job ID served
// from the shared artifact store — the read path for jobs this process
// never ran or has forgotten. False without a store or a matching
// artifact.
func (s *Service) ArtifactMeta(id string) (*ArtifactMeta, bool) {
	if s.store == nil {
		return nil, false
	}
	return s.store.MetaByID(id)
}

// HasStore reports whether this service persists and serves artifacts.
func (s *Service) HasStore() bool { return s.store != nil }

// ReplicaManager returns the replica-set lease manager, nil outside
// replica mode — the health endpoint reports its identity and held
// leases.
func (s *Service) ReplicaManager() *replica.Manager { return s.lease }
