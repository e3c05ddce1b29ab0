package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
)

// TestFetchMain drives the `sepriv fetch` client against a live server:
// the paged full fetch and a -rows window must both emit TSV whose rows
// agree with the embedding the result API serves.
func TestFetchMain(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	id, full := runTinyJob(t, ts, 31)

	// Full fetch, paged 5 rows at a time.
	var out, status strings.Builder
	if code := FetchMain([]string{"-addr", ts.URL, "-job", id, "-page", "5"}, &out, &status); code != 0 {
		t.Fatalf("fetch exit %d\n%s", code, status.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != full.Nodes {
		t.Fatalf("fetched %d TSV rows, want %d", len(lines), full.Nodes)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, fmt.Sprintf("%d\t", i)) {
			t.Fatalf("row %d mislabeled: %q", i, line)
		}
		if got := len(strings.Split(line, "\t")) - 1; got != full.Dim {
			t.Fatalf("row %d carries %d values, want %d", i, got, full.Dim)
		}
	}
	if !strings.Contains(status.String(), full.EmbeddingHash) {
		t.Errorf("status output %q does not report the embedding hash", status.String())
	}

	// Windowed fetch: node ids keep their absolute numbering.
	out.Reset()
	status.Reset()
	if code := FetchMain([]string{"-addr", ts.URL, "-job", id, "-rows", "4:7"}, &out, &status); code != 0 {
		t.Fatalf("windowed fetch exit %d\n%s", code, status.String())
	}
	winLines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(winLines) != 3 {
		t.Fatalf("windowed fetch emitted %d rows, want 3", len(winLines))
	}
	for i, line := range winLines {
		if line != lines[4+i] {
			t.Fatalf("window row %d diverges from the full fetch:\n%q\n%q", 4+i, line, lines[4+i])
		}
	}

	// Errors: bad window syntax and an unknown job are non-zero exits.
	if code := FetchMain([]string{"-addr", ts.URL, "-job", id, "-rows", "7:4"}, &out, &status); code == 0 {
		t.Error("descending -rows accepted")
	}
	if code := FetchMain([]string{"-addr", ts.URL, "-job", "jmissing"}, &out, &status); code == 0 {
		t.Error("unknown job accepted")
	}
	if code := FetchMain([]string{"-addr", ts.URL}, &out, &status); code != 2 {
		t.Error("missing -job accepted")
	}
}

// TestFetchMainDetectsReplacedResult: if the result changes between pages
// (hash mismatch), the client fails loudly rather than stitching rows of
// two different matrices.
func TestFetchMainDetectsReplacedResult(t *testing.T) {
	// A fake server whose second page reports a different hash.
	mux := http.NewServeMux()
	page := 0
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		hash := "aaaa"
		if page > 0 {
			hash = "bbbb"
		}
		next := ""
		if page == 0 {
			next = "/v1/jobs/x/result?embedding=range&offset=1&limit=1"
		}
		page++
		fmt.Fprintf(w, `{"nodes":2,"dim":1,"embeddingHash":%q,"rowCount":1,
			"range":{"offset":%d,"limit":1,"next":%q},"embedding":[[0.5]]}`, hash, page-1, next)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var out, status strings.Builder
	if code := FetchMain([]string{"-addr", ts.URL, "-job", "x"}, &out, &status); code == 0 {
		t.Fatal("mid-pagination hash change went unnoticed")
	}
}

// TestFetchMainExactPageBoundary (satellite of the final-page fix): paging
// a 12-row embedding with -page 6 and -page 12 hits the rowCount%limit==0
// case — the client must stop cleanly on the cursor-less final page with
// every row fetched exactly once, and its row-count cross-check must pass.
func TestFetchMainExactPageBoundary(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	id, full := runTinyJob(t, ts, 33)

	for _, page := range []string{"6", "12"} {
		var out, status strings.Builder
		if code := FetchMain([]string{"-addr", ts.URL, "-job", id, "-page", page}, &out, &status); code != 0 {
			t.Fatalf("-page %s exit %d\n%s", page, code, status.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != full.Nodes {
			t.Fatalf("-page %s fetched %d rows, want %d", page, len(lines), full.Nodes)
		}
		seen := map[string]bool{}
		for i, line := range lines {
			id := strings.SplitN(line, "\t", 2)[0]
			if id != fmt.Sprint(i) {
				t.Fatalf("-page %s row %d labeled %s", page, i, id)
			}
			if seen[id] {
				t.Fatalf("-page %s emitted row %s twice", page, id)
			}
			seen[id] = true
		}
		if !strings.Contains(status.String(), fmt.Sprintf("fetched %d rows", full.Nodes)) {
			t.Fatalf("-page %s status %q", page, status.String())
		}
	}
}

// TestFetchMainFullSizePage: the default page, 1024 rows, at r = 128 is
// about 3 MB of JSON, and both the paged TSV fetch and a -json -rows
// window of that size decode it whole.
func TestFetchMainFullSizePage(t *testing.T) {
	const nodes, dim = 1024, 128
	page := spec.ResultResponse{ID: "x", Status: "done", Nodes: nodes, Dim: dim, EmbeddingHash: "aaaa", RowCount: nodes}
	for i := range nodes {
		row := make([]float64, dim)
		for d := range row {
			row[d] = math.Sin(float64(i*dim+d)) / 3
		}
		page.Embedding = append(page.Embedding, row)
	}
	ranged := page
	ranged.Range = &spec.RangeInfo{Offset: 0, Limit: nodes}
	write := func(w http.ResponseWriter, v any) {
		if err := json.NewEncoder(w).Encode(v); err != nil {
			t.Error(err)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		write(w, spec.JobResponse{ID: "x", Status: "done"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		write(w, ranged)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result/rows/{window}", func(w http.ResponseWriter, r *http.Request) {
		write(w, page)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	body, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 1<<20 {
		t.Fatalf("page is %d bytes of JSON, want more than 1 MiB", len(body))
	}

	var out, status strings.Builder
	if code := FetchMain([]string{"-addr", ts.URL, "-job", "x"}, &out, &status); code != 0 {
		t.Fatalf("paged fetch of a %d-byte page: exit %d\n%s", len(body), code, status.String())
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != nodes {
		t.Fatalf("paged fetch emitted %d TSV rows, want %d", len(lines), nodes)
	}

	out.Reset()
	status.Reset()
	if code := FetchMain([]string{"-addr", ts.URL, "-job", "x", "-json", "-rows", "0:1024"}, &out, &status); code != 0 {
		t.Fatalf("-json -rows fetch of a %d-byte window: exit %d\n%s", len(body), code, status.String())
	}
	var got spec.ResultResponse
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil || len(got.Embedding) != nodes {
		t.Fatalf("-json -rows output: %d rows, err %v; want %d rows", len(got.Embedding), err, nodes)
	}
}
