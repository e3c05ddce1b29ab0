package spec

import (
	"time"

	"seprivgemb/internal/core"
)

// This file is the replica-set half of the wire contract: the lease and
// event shapes introduced with shared-nothing multi-instance serving.
// Lease files on disk and SSE event payloads on the wire both use these
// types, so an operator reading an artifact directory and a client
// consuming GET /v1/jobs/{id}/events see one schema. The JSON layout is
// pinned by the golden tests in events_test.go.

// JobEvent is one message of a job's live event stream, delivered over
// Server-Sent Events (GET /v1/jobs/{id}/events). Type is the SSE event
// name:
//
//	"epoch"    — an epoch completed; Progress carries its stats
//	             (loss, privacy spend, elapsed, per-stage timings).
//	"done"     — terminal: the job finished with a result. EmbeddingHash
//	             digests the full embedding, so a streaming client can
//	             hand off to the row-window API and verify pages.
//	"failed"   — terminal: the job errored; Error says why.
//	"canceled" — terminal: the job was canceled.
//
// Exactly one terminal event ends every stream. Seq increases by 1 per
// event within a job's stream (the SSE id: field), so a reconnecting
// client can detect gaps; a replica that never observed training (it
// serves the job straight from the shared artifact store) emits a single
// terminal event with Seq 0.
type JobEvent struct {
	Type          string        `json:"type"`
	Job           string        `json:"job"`
	Seq           int           `json:"seq"`
	Status        string        `json:"status,omitempty"`
	Progress      *ProgressInfo `json:"progress,omitempty"`
	EmbeddingHash string        `json:"embeddingHash,omitempty"`
	Error         string        `json:"error,omitempty"`
}

// Terminal reports whether the event ends its stream.
func (e JobEvent) Terminal() bool {
	switch e.Type {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// ProgressFrom converts the trainer's per-epoch observation to its wire
// form — the one conversion behind both the polled job view
// (GET /v1/jobs/{id}) and the streamed epoch event, so the two transports
// can never disagree about what an epoch looked like.
func ProgressFrom(st core.EpochStats) *ProgressInfo {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return &ProgressInfo{
		Epoch:      st.Epoch,
		Loss:       st.Loss,
		EpsSpent:   st.EpsSpent,
		DeltaSpent: st.DeltaSpent,
		ElapsedMs:  st.Elapsed.Milliseconds(),
		Stages: &StageInfo{
			SubgraphsMs:   ms(st.Stages.Subgraphs),
			EdgeWeightsMs: ms(st.Stages.EdgeWeights),
			GradientsMs:   ms(st.Stages.Gradients),
			ReduceMs:      ms(st.Stages.Reduce),
			UpdateMs:      ms(st.Stages.Update),
		},
	}
}

// LeaseInfo is the wire form of one job-ownership lease: which replica
// owns the right to train a job, and for how long. It is also the exact
// JSON layout of the on-disk lease file (<jobID>.lease in the shared
// artifact directory), so /v1/healthz and a shell `cat` report the same
// thing. Timestamps are RFC 3339 with nanoseconds; a lease whose
// ExpiresAt has passed is dead and may be taken over by any replica.
type LeaseInfo struct {
	Job        string `json:"job"`
	Replica    string `json:"replica"`
	AcquiredAt string `json:"acquiredAt"`
	RenewedAt  string `json:"renewedAt,omitempty"`
	ExpiresAt  string `json:"expiresAt"`
}

// HealthzResponse is the GET /v1/healthz body. Replica and Leases appear
// only in replica mode: the instance's identity and the leases it
// currently holds (the jobs it is training on behalf of the set).
type HealthzResponse struct {
	Status  string      `json:"status"`
	Replica string      `json:"replica,omitempty"`
	Leases  []LeaseInfo `json:"leases,omitempty"`
}
