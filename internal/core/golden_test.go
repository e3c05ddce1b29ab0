package core

import (
	"math"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

// fnv1a64 hashes a float64 slice bit-exactly (FNV-1a over the IEEE-754
// representation of each value in order).
func fnv1a64(xs []float64) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for _, x := range xs {
		b := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// goldenEmbedding is the FNV-1a hash of the trained embedding for the
// fixed-seed quick-scale run below, recorded on linux/amd64 with Go 1.24.
//
// This pins the numeric behavior of the whole training path — subgraph
// generation, the gradient stage, clipping, noise assignment and the RDP
// stopping rule — so refactors of the update path (including future
// parallel-engine work) cannot silently change results. If a change is
// *meant* to alter numerics, re-record the constant and say why in the
// commit. Architectures whose compilers fuse multiply-adds differently
// may hash differently; the constant is recorded for the CI platform.
//
// Migration note (PR 2, was 0xe1fec3a09e791919): moving the DP noise and
// the per-edge subgraph sampling from sequential RNG draws to
// counter-based streams (so both stages can shard across Workers) changes
// the layout of the random stream — which draws land where — but not a
// single distribution: noise is still i.i.d. N(0, (C·σ)²) per Eq. (9)'s
// sensitivity (resp. (B·C·σ)² for Eq. (6)), negatives are still drawn
// from the same Pn(v), and the RDP accounting is untouched. That was the
// one deliberate golden-hash update for the new noise-stream layout.
//
// Migration note (PR 7, was 0x5ac0a116633e4f3f): the mathx reductions
// (Dot, Norm2Sq, EuclideanDistance) now accumulate in four independent
// lanes combined as (s0+s1)+(s2+s3) plus a sequential tail (DESIGN.md
// §12), so every inner product and norm rounds differently by O(n·eps)
// — a different, equally valid fixed point of the same arithmetic. The
// kernel FUSIONS riding on this PR (fused forward+backward, deferred clip
// factors, cache-blocked reduction) are read-order-only and moved no
// rounding, which the composition-equality tests in mathx, skipgram and
// this package pin; the summation-order change in the reductions is the
// one deliberate golden-hash update of the kernel layer, and Workers
// {1, 2, 4, 7, 8} invariance held unchanged across it.
//
// Migration note (one-counter ziggurat normals, was 0x20017648543a9501):
// xrand.Stream.NormalAt moved from Box–Muller pairs (counters 2j, 2j+1
// shared one transform) to a 256-layer ziggurat that reads one counter per
// normal (DESIGN.md §6).
// Every noise coordinate is still i.i.d. N(0, 1) at the same address
// (epoch, matrix, row, d) and scaled to the same Eq. (6)/(9) sensitivity,
// and the RDP accounting is untouched; only the realization of each draw
// changed. Workers {1, 2, 4, 7, 8} invariance and spill-vs-dense bit
// identity held unchanged across it.
const goldenEmbedding uint64 = 0x535983062c04cab8

// TestGoldenDeterminism trains DefaultConfig at quick scale (reduced dim,
// batch and epochs; everything else the paper's settings) and compares the
// embedding hash against the recorded constant.
func TestGoldenDeterminism(t *testing.T) {
	g := graph.BarabasiAlbert(60, 2, xrand.New(42))
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.BatchSize = 32
	cfg.MaxEpochs = 25
	cfg.Seed = 1
	res, err := Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fnv1a64(res.Embedding().Data); got != goldenEmbedding {
		t.Fatalf("golden embedding hash = %#x, want %#x\n"+
			"The fixed-seed training output changed. If intentional, update goldenEmbedding.", got, goldenEmbedding)
	}
	// The golden run must itself be worker-count invariant.
	cfg.Workers = 4
	res4, err := Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fnv1a64(res4.Embedding().Data); got != goldenEmbedding {
		t.Fatalf("golden hash diverges at Workers=4: %#x, want %#x", got, goldenEmbedding)
	}
}
