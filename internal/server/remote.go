package server

import (
	"fmt"
	"net/http"

	"seprivgemb/internal/service"
)

// This file is the replica-set face of the read routes: serving a job
// this process never ran, straight off the shared artifact store. The
// job is not in the local table, so there is no *service.Job to build
// responses from — instead the persisted artifact's verified header
// (service.ArtifactMeta) stands in for it, and row windows decode
// through Service.ResultRows' by-ID store path. The wire shapes are the
// exact ones local jobs use; a client cannot tell (and should not care)
// which replica trained what it reads.

// peerArtifact resolves id to a persisted artifact — a peer replica's, or
// one of this process's own jobs the job table has since forgotten under
// its retention limits: the fallback taken only when the job is unknown
// locally.
func (s *Server) peerArtifact(id string) (*service.ArtifactMeta, bool) {
	if _, local := s.svc.JobByID(id); local {
		return nil, false
	}
	return s.svc.ArtifactMeta(id)
}

// remoteJobView is jobView for a job known only through the store. The
// artifact records no lifecycle timeline — queue and run happened in
// another process — so status is the one fact served: done.
func remoteJobView(meta *service.ArtifactMeta) jobResponse {
	return jobResponse{
		ID:     meta.JobID,
		Status: "done",
		Method: meta.Method,
	}
}

// remoteResultMeta is resultMeta for a job known only through the store,
// built entirely from the artifact header.
func remoteResultMeta(meta *service.ArtifactMeta) resultResponse {
	resp := resultResponse{
		ID:           meta.JobID,
		Status:       "done",
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

// remoteWindow serves rows [lo, hi) of a peer's artifact through the
// service's by-ID row path.
func (s *Server) remoteWindow(w http.ResponseWriter, id string, lo, hi int) ([][]float64, bool) {
	win, err := s.svc.ResultRows(id, lo, hi)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return embeddingRows(win.Rows), true
}

// resultRemote is the GET /v1/jobs/{id}/result handler for a peer's job:
// the same embedding-mode query contract as the local path, with the
// matrix shape taken from the artifact header and every window read from
// disk (a follower replica holds no in-memory copy to inline from).
func (s *Server) resultRemote(w http.ResponseWriter, r *http.Request, meta *service.ArtifactMeta) {
	mode, lo, hi, limit, err := parseEmbedQuery(r.URL.Query(), meta.Nodes, meta.Dim)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := remoteResultMeta(meta)
	switch mode {
	case embedFull:
		rows, ok := s.remoteWindow(w, meta.JobID, 0, meta.Nodes)
		if !ok {
			return
		}
		resp.Embedding = rows
		resp.RowCount = meta.Nodes
	case embedRange:
		rows, ok := s.remoteWindow(w, meta.JobID, lo, hi)
		if !ok {
			return
		}
		resp.Embedding = rows
		resp.RowCount = hi - lo
		rng := &rangeInfo{Offset: lo, Limit: limit}
		if hi < meta.Nodes {
			rng.Next = fmt.Sprintf("/v1/jobs/%s/result?embedding=range&offset=%d&limit=%d", meta.JobID, hi, limit)
			w.Header().Set("Link", fmt.Sprintf("<%s>; rel=%q", rng.Next, "next"))
		}
		resp.Range = rng
	}
	writeJSON(w, http.StatusOK, resp)
}

// resultRowsRemote is the explicit row-window route for a peer's job.
func (s *Server) resultRowsRemote(w http.ResponseWriter, r *http.Request, meta *service.ArtifactMeta) {
	lo, hi, err := parseWindow(r.PathValue("window"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rows, ok := s.remoteWindow(w, meta.JobID, lo, hi)
	if !ok {
		return
	}
	resp := remoteResultMeta(meta)
	resp.Embedding = rows
	resp.RowCount = hi - lo
	resp.Range = &rangeInfo{Offset: lo, Limit: hi - lo}
	writeJSON(w, http.StatusOK, resp)
}
