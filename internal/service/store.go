package service

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/replica"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/spec"
)

// artifactVersion identifies the on-disk result layout; bump on any field
// change so a stale artifact is retrained, never misread. v3 is the
// indexed frame stream of core/rowindex.go — 64 KiB blocks, independently
// decodable behind a row-offset index, so LoadRows serves any row window
// at O(window) memory — whose header also records the full-embedding
// digest. It is the only layout the store reads or writes: training is
// bit-deterministic, so a file in any other layout is a Load miss and the
// job retrains to the same bytes.
const artifactVersion = 3

// artifactHeader is the head frame of a persisted training result: the
// full deduplication key (re-verified on load — the filename hash is a
// lookup aid, not an identity), the matrix shape, every scalar Result
// field, and the FNV-1a digest of the full embedding so a row window
// can be verified against the matrix it was cut from. The weight matrices
// follow as chunked row blocks, so encoding a million-node result never
// buffers a dense copy inside gob.
type artifactHeader struct {
	Version          int
	GraphFingerprint uint64
	// Method is the canonical training-method name.
	Method          string
	Proximity       string
	ConfigHash      uint64
	Nodes, Dim      int
	Epochs          int
	Stopped         int
	StoppedByBudget bool
	EpsilonSpent    float64
	DeltaSpent      float64
	LossHistory     []float64
	// EmbeddingHash is mathx.DigestFloat64s over the full Win.
	EmbeddingHash uint64
}

// init numbers artifactHeader in gob right after core's frame types, at a
// fixed point of every program that imports this package: gob writes a
// type's process-wide id into every frame, so an artifact's bytes must not
// depend on what else the process encoded first (see core's init).
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(artifactHeader{}); err != nil {
		panic(err)
	}
}

// Store persists completed training results under one directory, so a
// restarted service serves repeat submissions without retraining — the
// durable tier under the in-memory Memo. Layout: one gob file per
// deduplication key, named by the stable job ID.
type Store struct {
	dir string
	// hits counts Loads that actually served a persisted result — the
	// durable-tier twin of Service.Trainings, so a restart-resubmission
	// test can assert "every cell came from disk".
	hits atomic.Uint64
	// byID caches MetaByID's verified hits: job ID → *ArtifactMeta. An
	// artifact's bytes are a pure function of its key (training is
	// deterministic and writes are atomic renames), so a verified record
	// never goes stale; misses are not cached, because a peer's artifact
	// may land at any moment. One small record per artifact a by-ID read
	// has touched, bounded by the artifacts on disk.
	byID sync.Map
}

// Hits returns how many Load calls served a persisted result.
func (st *Store) Hits() uint64 { return st.hits.Load() }

// NewStore opens (creating if needed) an artifact directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// path places a key's artifact. JobID is a hex-safe pure function of the
// key, so the name needs no escaping; the method (for non-default methods)
// and proximity names are appended readably for operators (sanitized —
// registry names are ASCII identifiers, but a custom Proximity could say
// otherwise). Default-method artifacts omit the method segment.
func (st *Store) path(key experiments.ResultKey) string {
	if m := keyMethod(key); m != methods.Default {
		return filepath.Join(st.dir, fmt.Sprintf("%s-%s-%s.result.gob",
			JobID(key), sanitizeName(m), sanitizeName(key.Proximity)))
	}
	return filepath.Join(st.dir, fmt.Sprintf("%s-%s.result.gob", JobID(key), sanitizeName(key.Proximity)))
}

func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// Save persists a completed result atomically (see
// replica.WriteFileAtomic), the same crash discipline as CLI checkpoints
// and replica leases: a torn write leaves the previous artifact — or no
// artifact — never a corrupt one. The artifact stores Win and Wout, so
// res must still hold Wout: a job's kept result, which has dropped it
// (core.Result.Shrink), is an error.
func (st *Store) Save(key experiments.ResultKey, res *core.Result) error {
	hdr := newArtifactHeader(key, res, mathx.DigestMat(res.Model.Win))
	return st.save(&hdr, res)
}

// save is Save with res's header already built by the caller.
func (st *Store) save(hdr *artifactHeader, res *core.Result) error {
	return replica.WriteFileAtomic(st.path(hdr.key()), func(w io.Writer) error {
		return core.WriteIndexed(w, hdr, res.Model.Win, res.Model.Wout)
	})
}

// newArtifactHeader is the header frame persisted for res under key;
// digest is mathx.DigestMat of res's Win.
func newArtifactHeader(key experiments.ResultKey, res *core.Result, digest uint64) artifactHeader {
	return artifactHeader{
		Version:          artifactVersion,
		GraphFingerprint: key.Graph,
		Method:           keyMethod(key),
		Proximity:        key.Proximity,
		ConfigHash:       key.Config,
		Nodes:            res.Model.Win.NumRows(),
		Dim:              res.Model.Dim,
		Epochs:           res.Epochs,
		Stopped:          int(res.Stopped),
		StoppedByBudget:  res.Stopped == core.StopBudget,
		EpsilonSpent:     res.EpsilonSpent,
		DeltaSpent:       res.DeltaSpent,
		LossHistory:      res.LossHistory,
		EmbeddingHash:    digest,
	}
}

// key is the deduplication key the header records.
func (hdr *artifactHeader) key() experiments.ResultKey {
	return experiments.ResultKey{
		Method:    hdr.Method,
		Graph:     hdr.GraphFingerprint,
		Proximity: hdr.Proximity,
		Config:    hdr.ConfigHash,
	}
}

// meta is the metadata record of the result the header describes: the
// one ArtifactMeta a finished job stores (train, adopt) and MetaByID
// serves, so every path reports the same record for one result.
func (hdr *artifactHeader) meta() *ArtifactMeta {
	key := hdr.key()
	return &ArtifactMeta{
		JobID:         JobID(key),
		Key:           key,
		Method:        keyMethod(key),
		Nodes:         hdr.Nodes,
		Dim:           hdr.Dim,
		Epochs:        hdr.Epochs,
		Stopped:       core.StopReason(hdr.Stopped),
		EpsilonSpent:  hdr.EpsilonSpent,
		DeltaSpent:    hdr.DeltaSpent,
		EmbeddingHash: hdr.EmbeddingHash,
	}
}

// Load retrieves the persisted result for key, reporting false on any
// miss: absent file, version skew, key mismatch (hash collision or a
// renamed file), or corruption — including a Win whose digest disagrees
// with the header's EmbeddingHash, the one checksum the format carries.
// A false simply means the service retrains — the store can never poison
// a response.
func (st *Store) Load(key experiments.ResultKey) (*core.Result, bool) {
	res, _, ok := st.load(key)
	return res, ok
}

// load is Load that also returns the header it verified.
func (st *Store) load(key experiments.ResultKey) (*core.Result, *artifactHeader, bool) {
	a, err := openArtifact(st.path(key))
	if err != nil {
		return nil, nil, false
	}
	defer a.f.Close()
	if a.check(key) != nil {
		return nil, nil, false
	}
	win, wout, err := a.ix.DecodeAll(a.f, a.size)
	if err != nil || mathx.DigestFloat64s(win) != a.hdr.EmbeddingHash {
		return nil, nil, false
	}
	st.hits.Add(1)
	return a.hdr.result(win, wout), &a.hdr, true
}

// sweepPath places a sweep artifact. Sweep IDs are "s" + 16 hex digits —
// filename-safe by construction.
func (st *Store) sweepPath(id string) string {
	return filepath.Join(st.dir, sanitizeName(id)+".sweep.json")
}

// SaveSweep persists a finished sweep's aggregated outcome with the same
// atomic write discipline as result artifacts. The artifact IS the wire
// response (spec.SweepResultResponse as JSON), so a table served from disk
// after a restart is byte-identical to the one served at completion.
func (st *Store) SaveSweep(res *spec.SweepResultResponse) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return replica.WriteFileAtomic(st.sweepPath(res.ID), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// LoadSweep retrieves a persisted sweep outcome, false on any miss — the
// ID is re-verified against the decoded artifact so a renamed file cannot
// answer for a different sweep.
func (st *Store) LoadSweep(id string) (*spec.SweepResultResponse, bool) {
	data, err := os.ReadFile(st.sweepPath(id))
	if err != nil {
		return nil, false
	}
	res := &spec.SweepResultResponse{}
	if err := json.Unmarshal(data, res); err != nil || res.ID != id {
		return nil, false
	}
	return res, true
}

// checkHeader validates an artifact header against the requested key.
func checkHeader(hdr *artifactHeader, key experiments.ResultKey) error {
	switch {
	case hdr.Version != artifactVersion:
		return fmt.Errorf("artifact version %d, want %d", hdr.Version, artifactVersion)
	case hdr.GraphFingerprint != key.Graph || hdr.Method != keyMethod(key) ||
		hdr.Proximity != key.Proximity || hdr.ConfigHash != key.Config:
		return fmt.Errorf("artifact key mismatch")
	case hdr.Nodes < 1 || hdr.Dim < 1 || hdr.Nodes > int(^uint(0)>>1)/hdr.Dim:
		return fmt.Errorf("artifact claims impossible shape %dx%d", hdr.Nodes, hdr.Dim)
	}
	return nil
}

func (hdr *artifactHeader) result(win, wout []float64) *core.Result {
	return &core.Result{
		Model: &skipgram.Model{
			Dim:  hdr.Dim,
			Win:  &mathx.Matrix{Rows: hdr.Nodes, Cols: hdr.Dim, Data: win},
			Wout: &mathx.Matrix{Rows: hdr.Nodes, Cols: hdr.Dim, Data: wout},
		},
		Epochs:       hdr.Epochs,
		Stopped:      core.StopReason(hdr.Stopped),
		EpsilonSpent: hdr.EpsilonSpent,
		DeltaSpent:   hdr.DeltaSpent,
		LossHistory:  hdr.LossHistory,
	}
}

// LoadRows decodes only rows [lo, hi) of the persisted embedding for key,
// seeking through the artifact's row-offset index so memory and I/O are
// O(window·r) no matter how many nodes the full matrix holds — the
// serving path for partial embeddings of million-node results. Unlike
// Load, failures are returned (not folded to a bool): the caller is
// serving a read, not deciding whether to retrain, so "no artifact", "bad
// window", and "corrupt index" all deserve distinct reports.
func (st *Store) LoadRows(key experiments.ResultKey, lo, hi int) (*core.EmbeddingWindow, error) {
	a, err := openArtifact(st.path(key))
	if err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: %w", JobID(key), err)
	}
	defer a.f.Close()
	if err := a.check(key); err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: %w", JobID(key), err)
	}
	m, err := a.ix.DecodeRows(a.f, a.ix.Win, a.size, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: %w", JobID(key), err)
	}
	return &core.EmbeddingWindow{
		Lo: lo, Hi: hi,
		TotalRows: a.hdr.Nodes,
		Dim:       a.hdr.Dim,
		Rows:      m,
		FullHash:  a.hdr.EmbeddingHash,
	}, nil
}

// indexedArtifact is an open v3 artifact with its row index and head frame
// decoded: what both a row window (LoadRows) and a by-ID metadata lookup
// (MetaByID) read before anything else.
type indexedArtifact struct {
	f    *os.File
	size int64
	ix   *core.RowIndex
	hdr  artifactHeader
}

// openArtifact opens the artifact at path and decodes its row index and
// header. The caller closes a.f, and verifies the header with check
// before trusting it.
func openArtifact(path string) (*indexedArtifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	a := &indexedArtifact{f: f}
	fi, err := f.Stat()
	if err == nil {
		a.size = fi.Size()
		a.ix, err = core.OpenIndexed(f, a.size, &a.hdr)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return a, nil
}

// check validates the header against key (checkHeader) and against the
// row index's shape.
func (a *indexedArtifact) check(key experiments.ResultKey) error {
	if err := checkHeader(&a.hdr, key); err != nil {
		return err
	}
	if a.hdr.Nodes != a.ix.Rows || a.hdr.Dim != a.ix.Cols {
		return fmt.Errorf("header shape %dx%d disagrees with index %dx%d",
			a.hdr.Nodes, a.hdr.Dim, a.ix.Rows, a.ix.Cols)
	}
	return nil
}
