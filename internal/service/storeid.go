package service

import (
	"fmt"
	"path/filepath"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/replica"
)

// This file is the by-job-ID face of the artifact store: the read path for
// a job this process never ran (a peer replica's) or has since forgotten.
// Such a request has no Job in the table and no ResultKey to look the
// artifact up by — only the job ID in the URL, and the store's filenames
// start with exactly that ID. MetaByID globs the directory for the ID,
// reconstructs the full deduplication key from the artifact's own header
// (every key field is recorded there), verifies the ID round-trips
// (JobID(reconstructed key) == requested ID, the same authenticity check
// the keyed path performs) and that the row index agrees with the header,
// and remembers the outcome: the ID is resolved once per process. Every
// later metadata read of it is answered from memory, and every row window
// goes straight to the keyed LoadRows.

// ArtifactMeta is the metadata record of a finished result: everything a
// result response says besides the rows. One function builds it, from
// the artifact header (artifactHeader.meta): a job in the table stores it
// when it finishes (Job.ResultMeta), and MetaByID builds it from a
// persisted artifact's header, so a replica that never ran the job serves
// the same record.
type ArtifactMeta struct {
	JobID         string
	Key           experiments.ResultKey
	Method        string
	Nodes, Dim    int
	Epochs        int
	Stopped       core.StopReason
	EpsilonSpent  float64
	DeltaSpent    float64
	EmbeddingHash uint64
}

// ValidJobID reports whether id has the canonical "j" + 16 lowercase hex
// shape every JobID produces — the gate that keeps a hand-crafted ID from
// turning the glob below into a directory probe.
func ValidJobID(id string) bool {
	if len(id) != 17 || id[0] != 'j' {
		return false
	}
	for _, c := range id[1:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// MetaByID returns the persisted result metadata for a job ID, false on
// any miss (no artifact, corrupt header or row index, ID mismatch).
// Stopped is never StopCanceled: only done runs are ever persisted.
func (st *Store) MetaByID(id string) (*ArtifactMeta, bool) {
	if v, ok := st.byID.Load(id); ok {
		meta := *v.(*ArtifactMeta)
		return &meta, true
	}
	if !ValidJobID(id) {
		return nil, false
	}
	// Job IDs are 64-bit hashes; two artifacts sharing a prefix means two
	// names for one job (impossible — path() is a pure function of the
	// key) or tampering. Either way the first match's header check
	// arbitrates.
	matches, err := filepath.Glob(filepath.Join(st.dir, id+"-*.result.gob"))
	if err != nil || len(matches) == 0 {
		return nil, false
	}
	a, err := openArtifact(matches[0])
	if err != nil {
		return nil, false
	}
	defer a.f.Close()
	meta := a.hdr.meta()
	if meta.JobID != id || a.check(meta.Key) != nil {
		return nil, false
	}
	st.byID.Store(id, meta)
	out := *meta
	return &out, true
}

// LoadRowsByID serves rows [lo, hi) of id's persisted embedding without a
// ResultKey. The key comes from MetaByID, then the read goes through the
// same indexed LoadRows as the keyed path, so the window contract
// (O(window·r) memory, full-matrix digest attached) is identical on every
// replica.
func (st *Store) LoadRowsByID(id string, lo, hi int) (*core.EmbeddingWindow, error) {
	meta, ok := st.MetaByID(id)
	if !ok {
		return nil, fmt.Errorf("service: no artifact for job %s in the shared store", id)
	}
	return st.LoadRows(meta.Key, lo, hi)
}

// startupSweepAge is the janitor's tmp-file grace on service startup:
// generous enough that no live writer — an artifact Save on a peer
// replica takes milliseconds, not an hour — can have its partial reaped.
const startupSweepAge = time.Hour

// Sweep is the artifact-directory janitor: it removes expired lease files
// and orphaned ".tmp" partials (crashed writers) older than maxAge. It
// runs on every service startup and behind `sepriv admin gc`; see
// replica.SweepDir for the exact reaping rules.
func (st *Store) Sweep(maxAge time.Duration) (leases, tmps int, err error) {
	return replica.SweepDir(st.dir, maxAge, time.Now())
}
