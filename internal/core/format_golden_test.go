package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCheckpointEncodeGoldenBytes pins the encoded bytes of the v3
// checkpoint stream. Round-trip tests cannot see a writer change that
// both ends agree on; this one fails on any byte drift in framing, chunk
// cuts, index or trailer, so a change to the writer must either keep the
// format byte-identical or bump checkpointVersion and re-record.
func TestCheckpointEncodeGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		nodes, dim int
		sha256     string
	}{
		{3, 5, "6f8bd76f4dad5476cc24cdf788dcd02b3238762bd6d17e0a430639779eb1cf10"},
		{1, chunkFloats, "a1dedf7cf1b5f2d41ed05bab2d801abd4f1af6e7d28636797f8fdb9697be3317"},
		{130, 64, "c1543d2eee637374f71c8e1e676988b0571a9899b3f0ab218768ef1607687803"},
		{1000, 17, "4e6ef179e56d2d9aeb5ba1a731552ddb299c91dd02bc7769e6bef1a23b5190ed"},
	} {
		sum := sha256.Sum256(encodeToBytes(t, chunkCheckpoint(tc.nodes, tc.dim)))
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%dx%d: encoded checkpoint sha256 = %s, want %s", tc.nodes, tc.dim, got, tc.sha256)
		}
	}
}
