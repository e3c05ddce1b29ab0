package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines starting with '#' or '%' are comments. Node IDs may be arbitrary
// non-negative integers; they are compacted to a dense [0, n) range in
// first-seen order. Self-loops and duplicates are dropped.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	type rawEdge struct{ u, v int }
	var raw []rawEdge
	ids := make(map[int]int)
	intern := func(x int) int {
		if id, ok := ids[x]; ok {
			return id
		}
		id := len(ids)
		ids[x] = id
		return id
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // grows with the longest line, up to 1 MiB
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %w", lineNo, fields[1], err)
		}
		raw = append(raw, rawEdge{intern(u), intern(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	b := NewBuilder(len(ids))
	for _, e := range raw {
		if e.u == e.v {
			continue // drop self-loops silently, matching preprocessing
		}
		if err := b.AddEdge(e.u, e.v); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// ReadEdgeListFile opens path and parses it with ReadEdgeList.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes the graph as "u v" lines with a header comment.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes the graph to path, creating or truncating it.
func WriteEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
