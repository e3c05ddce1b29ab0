package spec

// This file is the response half of the wire contract: the JSON shapes
// the HTTP front-end (internal/server) answers with. They live here, next
// to JobSpec, so a Go client — sepriv fetch, the bench client, external
// tooling — and the server decode and encode the very same types; the
// JSON layout is part of the serving contract and is covered by the
// handler table tests.

// JobResponse is the wire form of a job's observable state.
type JobResponse struct {
	ID       string        `json:"id"`
	Status   string        `json:"status"`
	Method   string        `json:"method"`
	Priority int           `json:"priority,omitempty"`
	Tenant   string        `json:"tenant,omitempty"`
	Progress *ProgressInfo `json:"progress,omitempty"`
	Timing   *TimingInfo   `json:"timing,omitempty"`
}

// TimingInfo is the job's lifecycle timeline: when it was accepted, when
// it actually acquired worker slots, and when it reached a terminal
// status. The derived durations are fractional milliseconds (like
// ProgressInfo.Stages — quick-scale jobs queue and run in microseconds),
// so a sweep client can tell queue-wait from run time without parsing
// timestamps. StartedAt/FinishedAt and their durations are present only
// once the corresponding transition happened; a job canceled while queued
// finishes without ever starting.
type TimingInfo struct {
	SubmittedAt string  `json:"submittedAt"`
	StartedAt   string  `json:"startedAt,omitempty"`
	FinishedAt  string  `json:"finishedAt,omitempty"`
	QueueMs     float64 `json:"queueMs,omitempty"`
	RunMs       float64 `json:"runMs,omitempty"`
}

// ProgressInfo mirrors core.EpochStats for the latest completed epoch.
type ProgressInfo struct {
	Epoch      int        `json:"epoch"`
	Loss       float64    `json:"loss"`
	EpsSpent   float64    `json:"epsSpent"`
	DeltaSpent float64    `json:"deltaSpent"`
	ElapsedMs  int64      `json:"elapsedMs"`
	Stages     *StageInfo `json:"stages,omitempty"`
}

// StageInfo is the wire form of core.StageTimings: the run's cumulative
// wall-clock per pipeline stage. Values are fractional milliseconds —
// quick-scale jobs finish whole stages in microseconds, and an integer
// millisecond field would round every one of them to zero.
type StageInfo struct {
	SubgraphsMs   float64 `json:"subgraphsMs"`
	EdgeWeightsMs float64 `json:"edgeWeightsMs"`
	GradientsMs   float64 `json:"gradientsMs"`
	ReduceMs      float64 `json:"reduceMs"`
	UpdateMs      float64 `json:"updateMs"`
}

// ResultResponse is the wire form of a finished job's outcome. Embedding
// holds the inlined rows — all of them, a page, or none, per the
// embedding mode — while RowCount says how many made it in and Range
// describes the window when one was requested. EmbeddingHash always
// digests the FULL |V|×r matrix, whatever slice of it the response
// carries, so any page or window can be verified against the whole.
type ResultResponse struct {
	ID            string      `json:"id"`
	Status        string      `json:"status"`
	Method        string      `json:"method"`
	Stopped       string      `json:"stopped"`
	Epochs        int         `json:"epochs"`
	Nodes         int         `json:"nodes"`
	Dim           int         `json:"dim"`
	EpsilonSpent  float64     `json:"epsilonSpent"`
	DeltaSpent    float64     `json:"deltaSpent"`
	EmbeddingHash string      `json:"embeddingHash"`
	RowCount      int         `json:"rowCount"`
	Range         *RangeInfo  `json:"range,omitempty"`
	Embedding     [][]float64 `json:"embedding,omitempty"`
}

// RangeInfo describes a served row window: Offset is its first row,
// Limit the page size asked for (so Offset+Limit may exceed the final
// short page), and Next the URL path+query of the following page ("" on
// the last one). Next is additionally sent as a Link: <...>; rel="next"
// header.
type RangeInfo struct {
	Offset int    `json:"offset"`
	Limit  int    `json:"limit"`
	Next   string `json:"next,omitempty"`
}

// MethodInfo is the wire form of one registry entry in GET /v1/methods.
type MethodInfo struct {
	Name          string `json:"name"`
	Description   string `json:"description"`
	Default       bool   `json:"default,omitempty"`
	UsesProximity bool   `json:"usesProximity"`
}

// MethodsResponse is the GET /v1/methods listing.
type MethodsResponse struct {
	Methods []MethodInfo `json:"methods"`
}

// SweepResponse is the wire form of a sweep's observable state: identity,
// lifecycle, per-status cell counts, and the full cell listing for
// drill-down (every cell carries its job ID, so GET /v1/jobs/{id} answers
// for any individual cell).
type SweepResponse struct {
	ID      string          `json:"id"`
	Status  string          `json:"status"`
	Metric  string          `json:"metric"`
	Tenant  string          `json:"tenant,omitempty"`
	Counts  SweepCounts     `json:"counts"`
	Cells   []SweepCellInfo `json:"cells,omitempty"`
	Created string          `json:"created,omitempty"`
}

// SweepCounts breaks the sweep's cells down by lifecycle state. Queued
// includes cells not yet admitted to the job queue (the sweep feeds cells
// in as tenant quota allows); Failed counts cells that were rejected at
// submission, errored while training, or failed evaluation; Canceled
// counts cells stopped by a sweep or job cancellation.
type SweepCounts struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

// SweepCellInfo is one cell of the grid: its axes, the job it resolved
// onto, its lifecycle state, and — once evaluated — its metric value.
type SweepCellInfo struct {
	JobID   string   `json:"jobId,omitempty"`
	Graph   string   `json:"graph"`
	Method  string   `json:"method"`
	Epsilon float64  `json:"epsilon"`
	Seed    uint64   `json:"seed"`
	Status  string   `json:"status"`
	Metric  *float64 `json:"metric,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// SweepTableRow is one aggregated cell group of the result table: the
// metric's mean and sample standard deviation over the seeds that
// completed for this (graph, method, epsilon), and how many did (N < the
// seed-axis length when cells failed — the aggregate never averages in a
// failure).
type SweepTableRow struct {
	Graph   string  `json:"graph"`
	Method  string  `json:"method"`
	Epsilon float64 `json:"epsilon"`
	Mean    float64 `json:"mean"`
	Std     float64 `json:"std"`
	N       int     `json:"n"`
}

// SweepTable is the aggregated comparison table: rows in (graph, method,
// epsilon) order — the paper's table shape. The JSON layout is
// wire-stable (struct-fixed field order, deterministic float formatting),
// so two identical sweeps serve byte-identical tables.
type SweepTable struct {
	Metric string          `json:"metric"`
	Rows   []SweepTableRow `json:"rows"`
}

// SweepResultResponse is the wire form of a finished sweep's outcome —
// and the layout of the persisted sweep artifact, so a table served from
// disk after a restart is byte-identical to the one served at completion.
type SweepResultResponse struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Metric string          `json:"metric"`
	Counts SweepCounts     `json:"counts"`
	Table  SweepTable      `json:"table"`
	Cells  []SweepCellInfo `json:"cells,omitempty"`
}

// ErrorResponse carries every non-2xx body.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status string `json:"status,omitempty"`
}
