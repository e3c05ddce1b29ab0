package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/methods"
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

// Save persists a completed result atomically (see writeFileAtomic), the
// same crash discipline as CLI checkpoints: a torn write leaves the
// previous artifact — or no artifact — never a corrupt one.
func (st *Store) Save(key experiments.ResultKey, res *core.Result) error {
	return writeFileAtomic(st.path(key), func(w io.Writer) error {
		return writeArtifact(w, key, res)
	})
}

// writeFileAtomic replaces path with the bytes write produces: it writes a
// sibling ".tmp" file, fsyncs it, renames it over path, and fsyncs the
// directory so the rename itself survives a crash — once it returns nil,
// the new file is durable. On any failure the temp file is removed and
// path keeps its previous contents.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeArtifact(w io.Writer, key experiments.ResultKey, res *core.Result) error {
	fw := core.NewFrameWriter(w)
	if err := fw.WriteStreamMagic(); err != nil {
		return err
	}
	hdr := artifactHeader{
		Version:          artifactVersion,
		GraphFingerprint: key.Graph,
		Method:           keyMethod(key),
		Proximity:        key.Proximity,
		ConfigHash:       key.Config,
		Nodes:            res.Model.Win.NumRows(),
		Dim:              res.Model.Dim,
		Epochs:           res.Epochs,
		Stopped:          int(res.Stopped),
		StoppedByBudget:  res.StoppedByBudget,
		EpsilonSpent:     res.EpsilonSpent,
		DeltaSpent:       res.DeltaSpent,
		LossHistory:      res.LossHistory,
		EmbeddingHash:    mathx.DigestMat(res.Model.Win),
	}
	if _, err := fw.WriteFrame(&hdr); err != nil {
		return err
	}
	// The Mat-streaming writer persists spill-backed results at O(chunk)
	// memory; for dense results it emits byte-identical frames to the
	// []float64 path.
	return core.WriteIndexedMats(fw, res.Model.Win, res.Model.Wout)
}

// Load retrieves the persisted result for key, reporting false on any
// miss: absent file, version skew, key mismatch (hash collision or a
// renamed file), or corruption. A false simply means the service retrains
// — the store can never poison a response.
func (st *Store) Load(key experiments.ResultKey) (*core.Result, bool) {
	f, err := os.Open(st.path(key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	res, err := readArtifact(f, key)
	if err != nil {
		return nil, false
	}
	st.hits.Add(1)
	return res, true
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
	return writeFileAtomic(st.sweepPath(res.ID), func(w io.Writer) error {
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
		Epochs:          hdr.Epochs,
		Stopped:         core.StopReason(hdr.Stopped),
		StoppedByBudget: hdr.StoppedByBudget,
		EpsilonSpent:    hdr.EpsilonSpent,
		DeltaSpent:      hdr.DeltaSpent,
		LossHistory:     hdr.LossHistory,
	}
}

func readArtifact(r io.Reader, key experiments.ResultKey) (*core.Result, error) {
	cr, err := core.ReadStreamMagic(r)
	if err != nil {
		return nil, err
	}
	var hdr artifactHeader
	if err := core.ReadFrameSeq(cr, &hdr); err != nil {
		return nil, err
	}
	if err := checkHeader(&hdr, key); err != nil {
		return nil, err
	}
	win, wout, err := core.ReadIndexedMatricesSeq(cr, hdr.Nodes, hdr.Dim)
	if err != nil {
		return nil, err
	}
	return hdr.result(win, wout), nil
}

// LoadRows decodes only rows [lo, hi) of the persisted embedding for key,
// seeking through the artifact's row-offset index so memory and I/O are
// O(window·r) no matter how many nodes the full matrix holds — the
// serving path for partial embeddings of million-node results. Unlike
// Load, failures are returned (not folded to a bool): the caller is
// serving a read, not deciding whether to retrain, so "no artifact", "bad
// window", and "corrupt index" all deserve distinct reports.
func (st *Store) LoadRows(key experiments.ResultKey, lo, hi int) (*core.EmbeddingWindow, error) {
	f, err := os.Open(st.path(key))
	if err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: %w", JobID(key), err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: %w", JobID(key), err)
	}
	size := fi.Size()
	ix, err := core.ReadRowIndex(f, size)
	if err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: %w", JobID(key), err)
	}
	var hdr artifactHeader
	if err := core.ReadFrameAt(f, 8, size, &hdr); err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: reading header: %w", JobID(key), err)
	}
	if err := checkHeader(&hdr, key); err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: %v", JobID(key), err)
	}
	if hdr.Nodes != ix.Rows || hdr.Dim != ix.Cols {
		return nil, fmt.Errorf("service: artifact for job %s: header shape %dx%d disagrees with index %dx%d",
			JobID(key), hdr.Nodes, hdr.Dim, ix.Rows, ix.Cols)
	}
	m, err := ix.DecodeRows(f, ix.Win, size, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("service: artifact for job %s: %w", JobID(key), err)
	}
	return &core.EmbeddingWindow{
		Lo: lo, Hi: hi,
		TotalRows: hdr.Nodes,
		Dim:       hdr.Dim,
		Rows:      m,
		FullHash:  hdr.EmbeddingHash,
	}, nil
}
