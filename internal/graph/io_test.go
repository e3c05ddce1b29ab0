package graph

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"seprivgemb/internal/xrand"
)

func TestReadEdgeList(t *testing.T) {
	input := `# comment
% another comment
0 1
1 2
2 0
2 2
1 0
`
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Errorf("nodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3 (self-loop and duplicate dropped)", g.NumEdges())
	}
}

func TestReadEdgeListNonContiguousIDs(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("100 200\n200 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("compacted graph wrong: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Error("single-field line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric id accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := ErdosRenyi(50, 100, xrand.New(8))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip: %d/%d nodes, %d/%d edges",
			h.NumNodes(), g.NumNodes(), h.NumEdges(), g.NumEdges())
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := ErdosRenyi(20, 40, xrand.New(9))
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := WriteEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("file roundtrip edges: %d vs %d", h.NumEdges(), g.NumEdges())
	}
}

func TestReadEdgeListFileMissing(t *testing.T) {
	if _, err := ReadEdgeListFile("/nonexistent/path/graph.txt"); err == nil {
		t.Error("missing file did not error")
	}
}

// FuzzReadEdgeList feeds arbitrary text to the edge-list parser, which
// reads operator-supplied graph files. It returns an error or a graph
// with no more nodes than the ids the input names — never a panic, and
// memory within a fixed allowance plus a constant multiple of the input.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range []string{
		"# comment\n% another\n0 1\n1 2\n2 0\n2 2\n1 0\n",
		"10 20 0.5\n20 30\n",
		"0\n",
		"a b\n",
		"-1 99999999999\n",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadEdgeList(strings.NewReader(input))
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(input)); n > bound {
			t.Fatalf("parsing %d bytes allocated %d, want <= %d", len(input), n, bound)
		}
		if err != nil {
			return
		}
		if ids := 2 * strings.Count(input+"\n", "\n"); g.NumNodes() > ids {
			t.Fatalf("%d nodes from %d bytes", g.NumNodes(), len(input))
		}
	})
}
