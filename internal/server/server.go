// Package server is the HTTP face of the job service: a thin JSON
// front-end that speaks the declarative JobSpec contract of internal/spec
// and delegates every decision — admission, priority, quotas, dedup,
// caching, persistence — to internal/service. Because both this package
// and the Go API submit through Service.SubmitSpec/Submit onto one job
// table, a spec POSTed here and the identical spec submitted in-process
// train once and share one Result.
//
// Routes (all JSON):
//
//	GET    /v1/healthz          liveness; replica identity + held leases
//	                            in replica mode
//	GET    /v1/methods          the trainer registry: every submittable method
//	POST   /v1/jobs             submit a JobSpec → 202 {id, status, ...}
//	GET    /v1/jobs/{id}        job status + live progress
//	GET    /v1/jobs/{id}/events live progress stream (Server-Sent Events):
//	                            "epoch" events then one terminal
//	                            done/failed/canceled event; on a replica
//	                            that does not own the job, the store is
//	                            polled and only the terminal event streams
//	GET    /v1/jobs/{id}/result result metadata + optionally embedding rows
//	                            (409 until done; see "Result serving")
//	GET    /v1/jobs/{id}/result/rows/{lo}-{hi}
//	                            explicit row window [lo, hi) of the embedding
//	DELETE /v1/jobs/{id}        cancel → 202
//	POST   /v1/sweeps           submit a SweepSpec → 202 {id, counts, cells}
//	GET    /v1/sweeps/{id}      live sweep status: counts + per-cell states
//	GET    /v1/sweeps/{id}/result
//	                            aggregated table (409 until complete; after a
//	                            restart, served from the sweep artifact)
//	DELETE /v1/sweeps/{id}      cancel remaining exclusively-held cells → 202
//
// Result serving: ?embedding=full|none|range selects how much of the
// |V|×r matrix is inlined. "range" pages through rows with ?offset= and
// ?limit= (default 1024 rows), returning rowCount/range metadata and a
// Link: <...>; rel="next" cursor until the matrix is exhausted. Without
// an explicit mode, results up to maxInlineFloats values inline in full
// and larger ones return hash+metadata only — a million-node embedding is
// paged, never materialized into one response. embeddingHash always
// covers the FULL matrix regardless of the window served, so any page
// can be verified against it.
//
// Replica serving: the result and row-window routes have one handler
// each, whichever process trained the job. The service hands them one
// metadata record (service.ArtifactMeta) — built by one function from the
// artifact header, stored by the job when it finished if it is in this
// process's table, read from the store when it is a peer replica's job or
// one this process has forgotten — and every
// row window comes from Service.ResultRows, so the owner, a peer and the
// owner after it forgot the job serve byte-identical bodies. With a shared
// artifact store, a job ID this instance never saw submitted answers on
// the status, result, row-window, and events routes once its artifact
// lands: the store resolves the ID once (glob, then reconstruct and
// re-verify the deduplication key from the artifact header), and rows
// decode through the same indexed window machinery as local jobs.
// "Unknown job" therefore means unknown to the whole set, not just this
// process.
//
// Error mapping: malformed or unresolvable specs → 400, unknown job IDs
// or malformed or out-of-range row windows → 400/404, result-before-done
// → 409, tenant over quota → 429, queued-cancel (never trained) results →
// 410, a row read that fails (unreadable spill file, corrupt artifact) →
// 500, submit after shutdown → 503. 429 and 503 carry a Retry-After header — polite
// backpressure for sweep clients that fan wide.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
)

// Server serves one job Service over HTTP. Construct with New.
type Server struct {
	svc *service.Service
}

// New returns an HTTP front-end over svc. The server does not own the
// service: the caller closes it (after http.Server.Shutdown, so no
// handler is mid-flight).
func New(svc *service.Service) *Server {
	return &Server{svc: svc}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("GET /v1/methods", s.methods)
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	mux.HandleFunc("GET /v1/jobs/{id}/result/rows/{window}", s.resultRows)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("POST /v1/sweeps", s.submitSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.sweepStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.sweepResult)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.cancelSweep)
	return mux
}

// The wire shapes live in internal/spec, next to JobSpec, so clients
// (sepriv fetch, the bench client, external tooling) decode exactly what the
// server encodes — the response half of the serving contract. Local
// aliases keep the handlers readable.
type (
	jobResponse    = spec.JobResponse
	progressInfo   = spec.ProgressInfo
	resultResponse = spec.ResultResponse
	rangeInfo      = spec.RangeInfo
	errorResponse  = spec.ErrorResponse
)

// EmbeddingHash digests an embedding matrix: FNV-1a over the row-major
// float64 bits (mathx.FNV64, the repo's one identity-hash primitive),
// hex-encoded. Bit-identical embeddings — the determinism contract's
// currency — hash identically on every transport, which is how clients
// (and the cross-transport tests) check they were served the same
// training run.
func EmbeddingHash(m *mathx.Matrix) string {
	return fmt.Sprintf("%016x", mathx.DigestFloat64s(m.Data))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// healthz answers liveness. In replica mode the body also carries the
// instance's identity and the leases it currently holds — which jobs it
// is training on behalf of the set — so an operator can map work to
// replicas with one GET per instance. Single-instance deployments see
// the bare {"status":"ok"} they always did (the replica fields omit
// when empty).
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	resp := spec.HealthzResponse{Status: "ok"}
	if m := s.svc.ReplicaManager(); m != nil {
		resp.Replica = m.ID()
		resp.Leases = m.Held()
	}
	writeJSON(w, http.StatusOK, resp)
}

// methods serves the trainer registry listing: which method names a spec
// may submit, which is the default, and whether each consumes the
// proximity measure. The listing is static per binary (the registry is a
// fixed map), so clients may cache it.
func (s *Server) methods(w http.ResponseWriter, r *http.Request) {
	list := methods.List()
	resp := spec.MethodsResponse{Methods: make([]spec.MethodInfo, len(list))}
	for i, m := range list {
		resp.Methods[i] = spec.MethodInfo{
			Name:          m.Name,
			Description:   m.Description,
			Default:       m.Default,
			UsesProximity: m.UsesProximity,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func jobView(j *service.Job) jobResponse {
	resp := jobResponse{
		ID:       j.ID(),
		Status:   j.Status().String(),
		Method:   j.Method(),
		Priority: j.Priority(),
		Tenant:   j.Tenant(),
		Timing:   timingView(j),
	}
	if st, ok := j.Progress(); ok {
		resp.Progress = spec.ProgressFrom(st)
	}
	return resp
}

// timingView converts a job's lifecycle timeline to the wire form:
// RFC 3339 timestamps plus fractional-millisecond durations (like
// progress.stages — quick-scale jobs queue and run in microseconds), so a
// sweep client can tell queue-wait from run time without parsing
// timestamps.
func timingView(j *service.Job) *spec.TimingInfo {
	submitted, started, finished := j.Timing()
	if submitted.IsZero() {
		return nil
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	ti := &spec.TimingInfo{SubmittedAt: submitted.UTC().Format(time.RFC3339Nano)}
	if !started.IsZero() {
		ti.StartedAt = started.UTC().Format(time.RFC3339Nano)
		ti.QueueMs = ms(started.Sub(submitted))
	}
	if !finished.IsZero() {
		ti.FinishedAt = finished.UTC().Format(time.RFC3339Nano)
		if !started.IsZero() {
			ti.RunMs = ms(finished.Sub(started))
		}
	}
	return ti
}

// retryAfterSeconds is the backoff hint sent with 429 and 503: long enough
// that a polite client stops hammering the quota, short enough that a
// freed slot is picked up promptly.
const retryAfterSeconds = 1

// writeSubmitError maps a submission error onto the wire, attaching
// Retry-After to the retryable statuses (429 quota, 503 draining).
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrQuotaExceeded):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, service.ErrInvalidSpec):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, service.ErrClosed):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	sp, err := spec.Decode(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.svc.SubmitSpec(*sp)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobView(j))
}

// maxSpecBytes bounds a submission body. Inline edge lists are the only
// large field; 64 MiB admits ~2M edges, matching the largest simulated
// dataset, while keeping a hostile body from exhausting memory.
const maxSpecBytes = 64 << 20

// lookup resolves the {id} path segment.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*service.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.svc.JobByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.svc.JobByID(id); ok {
		writeJSON(w, http.StatusOK, jobView(j))
		return
	}
	// A job this process never ran or has forgotten: the artifact records
	// no lifecycle timeline, so its status is the one fact served.
	if meta, ok := s.svc.ArtifactMeta(id); ok {
		writeJSON(w, http.StatusOK, jobResponse{ID: meta.JobID, Status: metaStatus(meta), Method: meta.Method})
		return
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
}

// finished resolves {id} to the metadata record of a finished result:
// the job's own for a job in this process's table, the artifact header's
// for one this process never ran or has forgotten. It writes the
// 404/409/410/500 responses itself otherwise.
func (s *Server) finished(w http.ResponseWriter, r *http.Request) (*service.ArtifactMeta, bool) {
	id := r.PathValue("id")
	j, ok := s.svc.JobByID(id)
	if !ok {
		if meta, ok := s.svc.ArtifactMeta(id); ok {
			return meta, true
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return nil, false
	}
	select {
	case <-j.Done():
	default:
		writeJSON(w, http.StatusConflict, errorResponse{
			Error:  "job has not finished; poll GET /v1/jobs/{id}",
			Status: j.Status().String(),
		})
		return nil, false
	}
	meta, err := j.ResultMeta()
	if err != nil {
		// No result exists to serve, and there never will be under this ID
		// unless resubmitted: the job was canceled while queued (never
		// trained), or ran a method that discards its partial work on
		// cancel (the baselines, which have no resumable checkpoint).
		if errors.Is(err, context.Canceled) {
			writeJSON(w, http.StatusGone, errorResponse{
				Error:  "job was canceled before a result was produced",
				Status: j.Status().String(),
			})
			return nil, false
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, false
	}
	return meta, true
}

// metaStatus is the lifecycle status a finished result implies: a run
// canceled mid-training leaves a partial result, every other result is
// done (and only completed runs are ever persisted).
func metaStatus(meta *service.ArtifactMeta) string {
	if meta.Stopped == core.StopCanceled {
		return service.StatusCanceled.String()
	}
	return service.StatusDone.String()
}

// resultView builds the window-independent part of a result response.
func resultView(meta *service.ArtifactMeta) resultResponse {
	resp := resultResponse{
		ID:           meta.JobID,
		Status:       metaStatus(meta),
		Method:       meta.Method,
		Stopped:      meta.Stopped.String(),
		Epochs:       meta.Epochs,
		Nodes:        meta.Nodes,
		Dim:          meta.Dim,
		EpsilonSpent: meta.EpsilonSpent,
		DeltaSpent:   meta.DeltaSpent,
	}
	if meta.EmbeddingHash != 0 {
		resp.EmbeddingHash = fmt.Sprintf("%016x", meta.EmbeddingHash)
	}
	return resp
}

// Result-inlining policy.
const (
	// maxInlineFloats is the documented cutoff for the default embedding
	// mode: a result whose |V|×r exceeds this many values (≈ 8 MiB of
	// float64s, far more as JSON) is served hash+metadata only unless the
	// caller explicitly asks for embedding=full or pages with
	// embedding=range. This is what keeps a GET on a million-node result
	// from materializing — and shipping — the whole matrix by accident.
	maxInlineFloats = 1 << 20
	// defaultPageRows is the page size when embedding=range is requested
	// without an explicit limit.
	defaultPageRows = 1024
)

// embedMode is the resolved embedding-inlining choice of one request.
type embedMode int

const (
	embedNone embedMode = iota
	embedFull
	embedRange
)

// parseEmbedQuery resolves the ?embedding/?offset/?limit query of a
// result GET against the matrix shape. Absent an explicit mode, offset or
// limit select range, and otherwise the size cutoff picks full vs none.
func parseEmbedQuery(q url.Values, nodes, dim int) (mode embedMode, lo, hi, limit int, err error) {
	queryInt := func(key string, def int) (int, error) {
		raw := q.Get(key)
		if raw == "" {
			return def, nil
		}
		n, err := strconv.Atoi(raw)
		if err != nil {
			return 0, fmt.Errorf("query %s=%q is not an integer", key, raw)
		}
		return n, nil
	}
	switch q.Get("embedding") {
	case "full":
		mode = embedFull
	case "none":
		mode = embedNone
	case "range":
		mode = embedRange
	case "":
		switch {
		case q.Has("offset") || q.Has("limit"):
			mode = embedRange
		case nodes*dim <= maxInlineFloats:
			mode = embedFull
		default:
			mode = embedNone
		}
	default:
		return 0, 0, 0, 0, fmt.Errorf("query embedding=%q, want full, none, or range", q.Get("embedding"))
	}
	if mode == embedFull {
		return mode, 0, nodes, nodes, nil
	}
	if mode == embedNone {
		return mode, 0, 0, 0, nil
	}
	offset, err := queryInt("offset", 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if limit, err = queryInt("limit", defaultPageRows); err != nil {
		return 0, 0, 0, 0, err
	}
	if offset < 0 || limit < 1 {
		return 0, 0, 0, 0, fmt.Errorf("query offset=%d limit=%d, want offset >= 0 and limit >= 1", offset, limit)
	}
	// Past-the-end offsets clamp to an empty final page rather than
	// erroring: a client paging by cursor never constructs one, but a
	// client computing offsets should not 400 on the boundary.
	lo, hi = offset, offset+limit
	if lo > nodes {
		lo = nodes
	}
	if hi > nodes {
		hi = nodes
	}
	return mode, lo, hi, limit, nil
}

// embeddingRows converts a matrix to the wire row-slice form.
func embeddingRows(m *mathx.Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// window reads rows [lo, hi) of a finished job through
// Service.ResultRows, the one row path whichever process trained the job.
// The caller has checked the window against the job's rows, so a failed
// read is the server's fault (an unreadable spill file, a corrupt
// artifact): window writes a 500 itself.
func (s *Server) window(w http.ResponseWriter, id string, lo, hi int) ([][]float64, bool) {
	win, err := s.svc.ResultRows(id, lo, hi)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, false
	}
	return embeddingRows(win.Rows), true
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	meta, ok := s.finished(w, r)
	if !ok {
		return
	}
	mode, lo, hi, limit, err := parseEmbedQuery(r.URL.Query(), meta.Nodes, meta.Dim)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := resultView(meta)
	if mode != embedNone {
		if resp.Embedding, ok = s.window(w, meta.JobID, lo, hi); !ok {
			return
		}
		resp.RowCount = hi - lo
	}
	if mode == embedRange {
		rng := &rangeInfo{Offset: lo, Limit: limit}
		if hi < meta.Nodes {
			rng.Next = fmt.Sprintf("/v1/jobs/%s/result?embedding=range&offset=%d&limit=%d", meta.JobID, hi, limit)
			w.Header().Set("Link", fmt.Sprintf("<%s>; rel=%q", rng.Next, "next"))
		}
		resp.Range = rng
	}
	writeJSON(w, http.StatusOK, resp)
}

// resultRows serves GET /v1/jobs/{id}/result/rows/{lo}-{hi}: the explicit
// row-window form of the result API, returning rows [lo, hi) with the
// usual metadata and the full-matrix embeddingHash.
func (s *Server) resultRows(w http.ResponseWriter, r *http.Request) {
	meta, ok := s.finished(w, r)
	if !ok {
		return
	}
	lo, hi, err := parseWindow(r.PathValue("window"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if hi > meta.Nodes {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("row window [%d, %d) outside embedding with %d rows", lo, hi, meta.Nodes))
		return
	}
	resp := resultView(meta)
	if resp.Embedding, ok = s.window(w, meta.JobID, lo, hi); !ok {
		return
	}
	resp.RowCount = hi - lo
	resp.Range = &rangeInfo{Offset: lo, Limit: hi - lo}
	writeJSON(w, http.StatusOK, resp)
}

// parseWindow parses the "{lo}-{hi}" path segment as a half-open row
// range [lo, hi).
func parseWindow(s string) (lo, hi int, err error) {
	if lo, hi, err = parseRowRange(s, "-"); err != nil {
		return 0, 0, fmt.Errorf("row window %q, want {lo}-{hi} with 0 <= lo <= hi", s)
	}
	return lo, hi, nil
}

// parseRowRange parses "lo<sep>hi" as a half-open range with
// 0 <= lo <= hi — one parser behind both the URL path form ("-") and the
// CLI flag form (":"), so their validation cannot drift.
func parseRowRange(s, sep string) (lo, hi int, err error) {
	a, b, ok := strings.Cut(s, sep)
	if ok {
		var errLo, errHi error
		lo, errLo = strconv.Atoi(a)
		hi, errHi = strconv.Atoi(b)
		ok = errLo == nil && errHi == nil && lo >= 0 && hi >= lo
	}
	if !ok {
		return 0, 0, fmt.Errorf("malformed row range %q", s)
	}
	return lo, hi, nil
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, jobView(j))
}

// submitSweep serves POST /v1/sweeps: decode, expand, and register a
// comparison grid. Like job submission it answers 202 immediately — the
// response carries the deterministic sweep ID, the canonicalized cell
// listing (every cell with its job ID for drill-down), and the initial
// counts. A resubmitted grid lands on the existing sweep: same ID, and if
// it already finished, cells answer done without any cell re-entering the
// queue.
func (s *Server) submitSweep(w http.ResponseWriter, r *http.Request) {
	sp, err := spec.DecodeSweep(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sw, err := s.svc.SubmitSweep(sp)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sw.Status())
}

// lookupSweep resolves the {id} path segment to a live sweep.
func (s *Server) lookupSweep(w http.ResponseWriter, r *http.Request) (*service.Sweep, bool) {
	id := r.PathValue("id")
	sw, ok := s.svc.SweepByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown sweep %q", id))
		return nil, false
	}
	return sw, true
}

func (s *Server) sweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sw.Status())
}

// sweepResult serves a completed sweep's aggregated table. The service
// answers from the live sweep when it ran in this process and falls back
// to the persisted sweep artifact otherwise — the restart path, where the
// served JSON is byte-identical to the table persisted at completion. A
// live-but-incomplete sweep is a 409, mirroring the job result contract.
func (s *Server) sweepResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if res, ok := s.svc.SweepResult(id); ok {
		writeJSON(w, http.StatusOK, res)
		return
	}
	if sw, ok := s.svc.SweepByID(id); ok {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error:  "sweep has not completed; poll GET /v1/sweeps/{id}",
			Status: sw.Status().Status,
		})
		return
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("unknown sweep %q", id))
}

func (s *Server) cancelSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(w, r)
	if !ok {
		return
	}
	sw.Cancel()
	writeJSON(w, http.StatusAccepted, sw.Status())
}
