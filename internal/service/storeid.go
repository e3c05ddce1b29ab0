package service

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/replica"
)

// This file is the by-job-ID face of the artifact store: the replica-set
// serving path. A row-window request can land on ANY replica of a
// shared-nothing set, including one that never saw the job submitted — it
// has no Job in its table and no ResultKey to look the artifact up by.
// What it does have is the job ID in the URL, and the store's filenames
// start with exactly that ID. These methods glob the directory for the
// ID, reconstruct the full deduplication key from the artifact's own
// header (every key field is recorded there), verify the ID round-trips
// (JobID(reconstructed key) == requested ID, the same authenticity check
// the keyed path performs), and then serve through the ordinary indexed
// row-window machinery.

// ArtifactMeta is the result metadata a replica can serve for a job it
// never ran, decoded from the persisted artifact's header.
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

// findByJobID locates the artifact file whose name starts with id.
func (st *Store) findByJobID(id string) (string, bool) {
	if !ValidJobID(id) {
		return "", false
	}
	matches, err := filepath.Glob(filepath.Join(st.dir, id+"-*.result.gob"))
	if err != nil || len(matches) == 0 {
		return "", false
	}
	// Job IDs are 64-bit hashes; two artifacts sharing a prefix means two
	// names for one job (impossible — path() is a pure function of the
	// key) or tampering. Either way the first match's header check
	// arbitrates.
	return matches[0], true
}

// headerByJobID opens id's artifact and returns its verified header: the
// key reconstructed from the header must hash back to the requested ID.
func (st *Store) headerByJobID(id string) (*artifactHeader, experiments.ResultKey, bool) {
	path, ok := st.findByJobID(id)
	if !ok {
		return nil, experiments.ResultKey{}, false
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, experiments.ResultKey{}, false
	}
	defer f.Close()
	hdr, err := readArtifactHeader(f)
	if err != nil {
		return nil, experiments.ResultKey{}, false
	}
	key := experiments.ResultKey{
		Method:    hdr.Method,
		Graph:     hdr.GraphFingerprint,
		Proximity: hdr.Proximity,
		Config:    hdr.ConfigHash,
	}
	if JobID(key) != id {
		return nil, experiments.ResultKey{}, false
	}
	return hdr, key, true
}

// readArtifactHeader decodes just the head frame of a v3 artifact.
func readArtifactHeader(f *os.File) (*artifactHeader, error) {
	cr, err := core.ReadStreamMagic(f)
	if err != nil {
		return nil, err
	}
	var hdr artifactHeader
	if err := core.ReadFrameSeq(cr, &hdr); err != nil {
		return nil, err
	}
	return &hdr, nil
}

// MetaByID returns the persisted result metadata for a job this process
// never ran, false on any miss (no artifact, corrupt header, ID
// mismatch). Stopped is always StopCompleted: only completed runs are
// ever persisted.
func (st *Store) MetaByID(id string) (*ArtifactMeta, bool) {
	hdr, key, ok := st.headerByJobID(id)
	if !ok {
		return nil, false
	}
	return &ArtifactMeta{
		JobID:         id,
		Key:           key,
		Method:        keyMethod(key),
		Nodes:         hdr.Nodes,
		Dim:           hdr.Dim,
		Epochs:        hdr.Epochs,
		Stopped:       core.StopReason(hdr.Stopped),
		EpsilonSpent:  hdr.EpsilonSpent,
		DeltaSpent:    hdr.DeltaSpent,
		EmbeddingHash: hdr.EmbeddingHash,
	}, true
}

// LoadRowsByID serves rows [lo, hi) of id's persisted embedding without a
// ResultKey — the not-owner serving path of a replica set. The key is
// reconstructed and verified from the artifact header, then the read goes
// through the same indexed LoadRows as the keyed path, so the window
// contract (O(window·r) memory, full-matrix digest attached) is
// identical on every replica.
func (st *Store) LoadRowsByID(id string, lo, hi int) (*core.EmbeddingWindow, error) {
	_, key, ok := st.headerByJobID(id)
	if !ok {
		return nil, fmt.Errorf("service: no artifact for job %s in the shared store", id)
	}
	return st.LoadRows(key, lo, hi)
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
