package core

import (
	"fmt"
	"io"
	"math"

	"seprivgemb/internal/dp"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// checkpointVersion identifies the serialized Checkpoint layout. Bump it
// whenever a field is added, removed, or reinterpreted; DecodeCheckpoint
// rejects mismatches rather than resuming from a misread state.
//
// v3 is the indexed frame stream of rowindex.go: a header frame, the
// weight matrices as independently decodable row-block frames, and a
// row-offset index, so DecodeCheckpointRows can serve an arbitrary row
// window of the embedding without materializing either full matrix. It is
// the only version this build reads or writes.
const checkpointVersion = 3

// chunkFloats is the block size (float64 values) of the chunked matrix
// stream: 8192 values = 64 KiB per frame, small enough that the
// encoder's transient buffer is O(1) in |V| and large enough that framing
// overhead is negligible.
const chunkFloats = 8192

// Checkpoint is a resumable snapshot of a training run at an epoch
// boundary. It captures everything the remaining epochs depend on — the
// two weight matrices, the sequential run RNG (whose position encodes all
// batch sampling so far), the counter-based noise stream, and the RDP
// accountant's per-order totals — so a run resumed from a checkpoint is
// bit-identical to one that never stopped (the DESIGN.md §6 determinism
// contract extended across process boundaries, §8).
//
// A checkpoint is tied to its run: ConfigHash and GraphFingerprint pin the
// hyperparameters and the exact graph, and TrainContext refuses to resume
// when either differs. Config.Workers, Config.MemoryBudget and
// Config.MaxEpochs are exempt — the first two never change results (a
// checkpoint written by an in-memory run resumes under any budget and vice
// versa), and allowing the third to grow is how a finished run is extended.
type Checkpoint struct {
	// Version is the checkpoint format version (checkpointVersion).
	Version int
	// ConfigHash pins the result-shaping Config fields (see Config.Hash;
	// MaxEpochs is additionally excluded here).
	ConfigHash uint64
	// GraphFingerprint pins the exact training graph (graph.Fingerprint).
	GraphFingerprint uint64
	// Nodes and Dim record the weight-matrix shape.
	Nodes, Dim int
	// Epoch is the number of completed epochs; resume continues at this
	// epoch index.
	Epoch int
	// Win and Wout are the raw row-major weight matrices at the boundary.
	Win, Wout []float64
	// RNG is the sequential run RNG, positioned at the start of epoch
	// Epoch's batch sampling.
	RNG xrand.RNGState
	// Noise is the counter-based DP noise stream's state (private runs;
	// zero and unused otherwise). Its draws are addressed by (epoch,
	// matrix, row, coordinate), so no position needs capturing.
	Noise uint64
	// HasAccountant reports whether Accountant is meaningful (private runs).
	HasAccountant bool
	// Accountant is the RDP accountant's per-order composition so far.
	Accountant dp.AccountantState
	// LossHistory, EpsilonSpent and DeltaSpent restore the Result fields
	// accumulated before the boundary.
	LossHistory  []float64
	EpsilonSpent float64
	DeltaSpent   float64
}

// Hash returns a 64-bit FNV-1a digest of every Config field that shapes a
// run's numeric output. Workers and MemoryBudget are excluded: by the
// determinism contract they trade wall-clock time and resident memory
// only, never a result bit — a spilled run hashes, dedups, and resumes
// interchangeably with its in-memory twin. Two configs with equal hashes
// produce bit-identical Results on the same graph and proximity, which is
// what the service layer's job deduplication keys on.
func (c Config) Hash() uint64 {
	h := mathx.NewFNV64()
	h.Word(uint64(c.Dim))
	h.Word(uint64(c.K))
	h.Word(uint64(c.BatchSize))
	h.Word(uint64(c.MaxEpochs))
	h.Word(math.Float64bits(c.LearningRate))
	h.Word(math.Float64bits(c.Clip))
	h.Word(math.Float64bits(c.Sigma))
	h.Word(math.Float64bits(c.Epsilon))
	h.Word(math.Float64bits(c.Delta))
	h.Word(uint64(c.Strategy))
	h.Word(uint64(c.NegSampling))
	if c.Private {
		h.Word(1)
	} else {
		h.Word(0)
	}
	h.Word(c.Seed)
	return h.Sum()
}

// resumeHash is Hash with MaxEpochs also excluded: a resumed run may raise
// (or lower) the epoch budget without invalidating the checkpoint, since
// MaxEpochs only bounds the loop — it never changes an epoch's numerics.
func (c Config) resumeHash() uint64 {
	c.MaxEpochs = 0
	return c.Hash()
}

// captureCheckpoint snapshots the live training state. It deep-copies the
// matrices and accountant, so the checkpoint stays frozen while training
// continues.
func captureCheckpoint(g *graph.Graph, cfg Config, model *skipgram.Model,
	rng *xrand.RNG, noise xrand.Stream, acct *dp.Accountant, res *Result) *Checkpoint {
	ck := &Checkpoint{
		Version:          checkpointVersion,
		ConfigHash:       cfg.resumeHash(),
		GraphFingerprint: g.Fingerprint(),
		Nodes:            model.Win.NumRows(),
		Dim:              model.Dim,
		Epoch:            res.Epochs,
		Win:              mathx.CopyOut(model.Win),
		Wout:             mathx.CopyOut(model.Wout),
		RNG:              rng.State(),
		LossHistory:      append([]float64(nil), res.LossHistory...),
		EpsilonSpent:     res.EpsilonSpent,
		DeltaSpent:       res.DeltaSpent,
	}
	if acct != nil {
		ck.HasAccountant = true
		ck.Accountant = acct.State()
		ck.Noise = noise.State()
	}
	return ck
}

// validateFor checks that ck can resume training of cfg on g, returning a
// descriptive error otherwise.
func (ck *Checkpoint) validateFor(g *graph.Graph, cfg Config) error {
	switch {
	case ck == nil:
		return fmt.Errorf("core: nil checkpoint")
	case ck.Version != checkpointVersion:
		return fmt.Errorf("core: checkpoint format v%d, this build reads v%d",
			ck.Version, checkpointVersion)
	case ck.ConfigHash != cfg.resumeHash():
		return fmt.Errorf("core: checkpoint was recorded under a different config " +
			"(only Workers, MemoryBudget and MaxEpochs may change across a resume)")
	case ck.GraphFingerprint != g.Fingerprint():
		return fmt.Errorf("core: checkpoint was recorded on a different graph")
	case ck.Nodes != g.NumNodes() || ck.Dim != cfg.Dim:
		return fmt.Errorf("core: checkpoint shape %dx%d does not match run %dx%d",
			ck.Nodes, ck.Dim, g.NumNodes(), cfg.Dim)
	case len(ck.Win) != ck.Nodes*ck.Dim || len(ck.Wout) != ck.Nodes*ck.Dim:
		return fmt.Errorf("core: checkpoint matrices have %d/%d values, want %d",
			len(ck.Win), len(ck.Wout), ck.Nodes*ck.Dim)
	case ck.Epoch < 0 || len(ck.LossHistory) != ck.Epoch:
		return fmt.Errorf("core: checkpoint at epoch %d carries %d loss entries",
			ck.Epoch, len(ck.LossHistory))
	case cfg.Private && !ck.HasAccountant:
		return fmt.Errorf("core: private resume needs an accountant snapshot")
	}
	return nil
}

// checkpointHeader is the gob-encoded head of the wire format: every
// Checkpoint field except the two weight matrices, which follow as chunked
// row blocks.
type checkpointHeader struct {
	Version          int
	ConfigHash       uint64
	GraphFingerprint uint64
	Nodes, Dim       int
	Epoch            int
	RNG              xrand.RNGState
	Noise            uint64
	HasAccountant    bool
	Accountant       dp.AccountantState
	LossHistory      []float64
	EpsilonSpent     float64
	DeltaSpent       float64
}

// header returns ck's wire header.
func (ck *Checkpoint) header() checkpointHeader {
	return checkpointHeader{
		Version:          ck.Version,
		ConfigHash:       ck.ConfigHash,
		GraphFingerprint: ck.GraphFingerprint,
		Nodes:            ck.Nodes,
		Dim:              ck.Dim,
		Epoch:            ck.Epoch,
		RNG:              ck.RNG,
		Noise:            ck.Noise,
		HasAccountant:    ck.HasAccountant,
		Accountant:       ck.Accountant,
		LossHistory:      ck.LossHistory,
		EpsilonSpent:     ck.EpsilonSpent,
		DeltaSpent:       ck.DeltaSpent,
	}
}

func checkpointFromHeader(hdr checkpointHeader) *Checkpoint {
	return &Checkpoint{
		Version:          hdr.Version,
		ConfigHash:       hdr.ConfigHash,
		GraphFingerprint: hdr.GraphFingerprint,
		Nodes:            hdr.Nodes,
		Dim:              hdr.Dim,
		Epoch:            hdr.Epoch,
		RNG:              hdr.RNG,
		Noise:            hdr.Noise,
		HasAccountant:    hdr.HasAccountant,
		Accountant:       hdr.Accountant,
		LossHistory:      hdr.LossHistory,
		EpsilonSpent:     hdr.EpsilonSpent,
		DeltaSpent:       hdr.DeltaSpent,
	}
}

// Encode writes ck to w in the indexed v3 checkpoint format (rowindex.go):
// stream magic, a header frame with every scalar field, Win and Wout as
// independently decodable row-block frames, the row-offset index, and the
// trailer. Streaming keeps encode memory flat in |V| — the checkpoint's
// own two dense copies are the only ones alive — and the index lets
// DecodeCheckpointRows later serve any row window at O(window) cost.
func (ck *Checkpoint) Encode(w io.Writer) error {
	if n := ck.Nodes * ck.Dim; len(ck.Win) != n || len(ck.Wout) != n {
		return fmt.Errorf("core: encoding checkpoint: %d/%d values for shape %dx%d",
			len(ck.Win), len(ck.Wout), ck.Nodes, ck.Dim)
	}
	fw := NewFrameWriter(w)
	if err := fw.WriteStreamMagic(); err != nil {
		return fmt.Errorf("core: encoding checkpoint magic: %w", err)
	}
	hdr := ck.header()
	if _, err := fw.WriteFrame(&hdr); err != nil {
		return fmt.Errorf("core: encoding checkpoint header: %w", err)
	}
	win := &mathx.Matrix{Rows: ck.Nodes, Cols: ck.Dim, Data: ck.Win}
	wout := &mathx.Matrix{Rows: ck.Nodes, Cols: ck.Dim, Data: ck.Wout}
	if err := WriteIndexedMats(fw, win, wout); err != nil {
		return fmt.Errorf("core: encoding checkpoint matrices: %w", err)
	}
	return nil
}

// DecodeCheckpoint reads a checkpoint written by Encode. A stream in any
// other format — including those of earlier builds — is an error naming
// the version this build reads; rerunning the job reproduces the state.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	cr, err := ReadStreamMagic(r)
	if err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	var hdr checkpointHeader
	if err := ReadFrameSeq(cr, &hdr); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint header: %w", err)
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint claims format v%d, this build reads v%d",
			hdr.Version, checkpointVersion)
	}
	ck := checkpointFromHeader(hdr)
	if ck.Win, ck.Wout, err = ReadIndexedMatricesSeq(cr, hdr.Nodes, hdr.Dim); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint matrices: %w", err)
	}
	return ck, nil
}

// DecodeCheckpointRows decodes only rows [lo, hi) of the embedding (Win)
// matrix of an indexed v3 checkpoint, reading just the chunk frames the
// window intersects — memory and I/O are O(window·r), never O(|V|·r).
// ra is the checkpoint stream (e.g. an *os.File or bytes.Reader) and size
// its total byte length.
func DecodeCheckpointRows(ra io.ReaderAt, size int64, lo, hi int) (*EmbeddingWindow, error) {
	ix, err := ReadRowIndex(ra, size)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint row window: %w", err)
	}
	var hdr checkpointHeader
	if err := ReadFrameAt(ra, 8, size, &hdr); err != nil {
		return nil, fmt.Errorf("core: checkpoint row window: reading header: %w", err)
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint claims format v%d, this build reads v%d",
			hdr.Version, checkpointVersion)
	}
	if hdr.Nodes != ix.Rows || hdr.Dim != ix.Cols {
		return nil, fmt.Errorf("core: checkpoint header shape %dx%d disagrees with index %dx%d",
			hdr.Nodes, hdr.Dim, ix.Rows, ix.Cols)
	}
	m, err := ix.DecodeRows(ra, ix.Win, size, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint row window: %w", err)
	}
	return &EmbeddingWindow{Lo: lo, Hi: hi, TotalRows: ix.Rows, Dim: ix.Cols, Rows: m}, nil
}
