package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"seprivgemb"
	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/xrand"
)

// newTestServer stands up a Service + HTTP front-end; both are torn down
// with the test.
func newTestServer(t *testing.T, opts service.Options) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(opts)
	ts := httptest.NewServer(New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.CancelAll()
		svc.Close()
	})
	return ts, svc
}

// tinySpecJSON is a fast inline job (12-node wheel, 4 epochs).
func tinySpecJSON(seed int) string {
	return fmt.Sprintf(`{
		"graph": {"inline": {"nodes": 12, "edges": [
			[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[11,0],
			[0,6],[1,7],[2,8],[3,9]
		]}},
		"proximity": "degree",
		"config": {"dim": 8, "batchSize": 8, "maxEpochs": 4, "seed": %d}
	}`, seed)
}

// longSpecJSON is a non-private run long enough to still be in flight when
// a test pokes at it (canceled in cleanup if needed).
func longSpecJSON(seed int, tenant string) string {
	return fmt.Sprintf(`{
		"graph": {"inline": {"nodes": 12, "edges": [
			[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[11,0],
			[0,6],[1,7],[2,8],[3,9]
		]}},
		"proximity": "degree",
		"config": {"dim": 8, "batchSize": 8, "maxEpochs": 2000000, "private": false, "seed": %d},
		"tenant": %q
	}`, seed, tenant)
}

func postSpec(t *testing.T, ts *httptest.Server, body string) (*http.Response, jobResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, jr
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (int, jobResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	_ = json.NewDecoder(resp.Body).Decode(&jr)
	return resp.StatusCode, jr
}

func pollDone(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, jr := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("status poll: HTTP %d", code)
		}
		switch jr.Status {
		case "done":
			return jr
		case "failed", "canceled":
			t.Fatalf("job %s ended %q", id, jr.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 1})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
}

// TestSubmitRejections is the bad-spec 400 table.
func TestSubmitRejections(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"unknown field", `{"graph":{"inline":{"nodes":4,"edges":[[0,1],[1,2]]}},"proximity":"degree","config":{"seed":1,"epslion":2}}`, http.StatusBadRequest},
		{"no graph source", `{"proximity":"degree","config":{"seed":1}}`, http.StatusBadRequest},
		{"unknown dataset", `{"graph":{"dataset":{"name":"no-such","seed":1}},"proximity":"degree","config":{"seed":1}}`, http.StatusBadRequest},
		{"unknown proximity", `{"graph":{"inline":{"nodes":4,"edges":[[0,1],[1,2]]}},"proximity":"no-such","config":{"seed":1}}`, http.StatusBadRequest},
		{"self-loop edge", `{"graph":{"inline":{"nodes":2,"edges":[[1,1]]}},"proximity":"degree","config":{"seed":1}}`, http.StatusBadRequest},
		{"inline nodes beyond 2·edges", `{"graph":{"inline":{"nodes":4000000000,"edges":[[0,1]]}},"proximity":"degree","config":{"seed":1}}`, http.StatusBadRequest},
		{"escaping file path", `{"graph":{"file":{"path":"../x"}},"proximity":"degree","config":{"seed":1}}`, http.StatusBadRequest},
		{"dataset scale above 1", `{"graph":{"dataset":{"name":"chameleon","scale":1e9,"seed":1}},"proximity":"deepwalk","config":{"seed":1}}`, http.StatusBadRequest},
		{"naive strategy with a memory budget", `{"graph":{"inline":{"nodes":4,"edges":[[0,1],[1,2],[2,3]]}},"proximity":"degree","config":{"seed":1,"strategy":"naive","memoryBudget":1024}}`, http.StatusBadRequest},
		{"memory budget below one epoch's rows", `{"graph":{"inline":{"nodes":4,"edges":[[0,1],[1,2],[2,3]]}},"proximity":"degree","config":{"seed":1,"memoryBudget":1}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := postSpec(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestSubmitStatusResultLifecycle drives one job through the happy path.
func TestSubmitStatusResultLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	resp, jr := postSpec(t, ts, tinySpecJSON(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if jr.ID == "" {
		t.Fatal("submit response carries no job ID")
	}
	final := pollDone(t, ts, jr.ID)
	if final.Progress == nil || final.Progress.Epoch != 3 {
		t.Fatalf("final progress %+v, want epoch 3", final.Progress)
	}

	res, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/result?embedding=full")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", res.StatusCode)
	}
	var rr resultResponse
	if err := json.NewDecoder(res.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Epochs != 4 || rr.Stopped != "completed" || rr.EmbeddingHash == "" {
		t.Fatalf("result response %+v", rr)
	}
	if len(rr.Embedding) != rr.Nodes || len(rr.Embedding[0]) != rr.Dim {
		t.Fatalf("inlined embedding is %dx%d, want %dx%d",
			len(rr.Embedding), len(rr.Embedding[0]), rr.Nodes, rr.Dim)
	}

	// Idempotent re-submission of the identical spec: same ID, served from
	// the memo.
	resp2, jr2 := postSpec(t, ts, tinySpecJSON(1))
	if resp2.StatusCode != http.StatusAccepted || jr2.ID != jr.ID {
		t.Fatalf("re-submission: HTTP %d id %s, want 202 id %s", resp2.StatusCode, jr2.ID, jr.ID)
	}
}

// TestStatusReportsStageTimings pins the profiler half of the serving
// contract (DESIGN.md §12): a finished job's status payload carries the
// cumulative per-stage wall-clock breakdown, every stage non-negative and
// the per-epoch stages strictly positive once epochs have run.
func TestStatusReportsStageTimings(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 1})
	resp, jr := postSpec(t, ts, tinySpecJSON(3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := pollDone(t, ts, jr.ID)
	if final.Progress == nil || final.Progress.Stages == nil {
		t.Fatalf("final status %+v carries no stage timings", final.Progress)
	}
	st := final.Progress.Stages
	table := []struct {
		name     string
		ms       float64
		positive bool // must be > 0, not merely >= 0
	}{
		{"subgraphsMs", st.SubgraphsMs, false}, // one-shot setup can round to ~0 but never negative
		{"edgeWeightsMs", st.EdgeWeightsMs, false},
		{"gradientsMs", st.GradientsMs, true},
		{"reduceMs", st.ReduceMs, true},
		{"updateMs", st.UpdateMs, true},
	}
	for _, row := range table {
		if row.ms < 0 {
			t.Errorf("%s = %g, want >= 0", row.name, row.ms)
		}
		if row.positive && row.ms <= 0 {
			t.Errorf("%s = %g, want > 0 after %d epochs", row.name, row.ms, final.Progress.Epoch+1)
		}
	}
	if total := st.SubgraphsMs + st.EdgeWeightsMs + st.GradientsMs + st.ReduceMs + st.UpdateMs; total > float64(final.Progress.ElapsedMs+1) {
		t.Errorf("stage total %.3fms exceeds elapsed %dms", total, final.Progress.ElapsedMs)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 1})
	for _, path := range []string{"/v1/jobs/jdeadbeef", "/v1/jobs/jdeadbeef/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/jdeadbeef", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestResultBeforeDoneAndCancel: result of an in-flight job is 409; DELETE
// cancels it; the canceled partial then serves with stopped=canceled.
func TestResultBeforeDoneAndCancel(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 1})
	resp, jr := postSpec(t, ts, longSpecJSON(5, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Wait until it trains so the cancel yields a partial result.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := getStatus(t, ts, jr.ID)
		if st.Progress != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reported progress")
		}
		time.Sleep(2 * time.Millisecond)
	}

	res, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: HTTP %d, want 409", res.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jr.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d, want 202", dresp.StatusCode)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		_, st := getStatus(t, ts, jr.ID)
		if st.Status == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after cancel", st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A mid-training cancel leaves a partial, resumable result.
	res2, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("canceled result: HTTP %d, want 200", res2.StatusCode)
	}
	var rr resultResponse
	if err := json.NewDecoder(res2.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Stopped != "canceled" || rr.Epochs == 0 {
		t.Fatalf("canceled result %+v", rr)
	}
}

// TestTenantQuota429: with a one-job quota, a tenant's second distinct
// spec is rejected with 429 while the first still runs; a DELETE frees it.
func TestTenantQuota429(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 1, TenantInflight: 1})
	resp, jr := postSpec(t, ts, longSpecJSON(6, "acme"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: HTTP %d", resp.StatusCode)
	}
	resp2, _ := postSpec(t, ts, longSpecJSON(7, "acme"))
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second acme job: HTTP %d, want 429", resp2.StatusCode)
	}
	// A different tenant is admitted (it queues behind the running job).
	resp3, jr3 := postSpec(t, ts, longSpecJSON(8, "globex"))
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("globex job: HTTP %d, want 202", resp3.StatusCode)
	}
	for _, id := range []string{jr.ID, jr3.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
	}
}

// TestCrossTransportDedup is the PR's acceptance criterion: one JobSpec
// submitted concurrently over HTTP and through Service.SubmitSpec trains
// exactly once — both callers land on the same job — and the embedding
// hash equals a Session.Run of the equivalent in-memory arguments.
func TestCrossTransportDedup(t *testing.T) {
	ts, svc := newTestServer(t, service.Options{MaxWorkers: 2})

	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8},
		{8, 9}, {9, 10}, {10, 11}, {11, 0}, {0, 6}, {1, 7}, {2, 8}, {3, 9},
	}
	sp := spec.JobSpec{
		Graph:     spec.GraphSource{Inline: &spec.InlineSource{Nodes: 12, Edges: edges}},
		Proximity: "degree",
		Config:    spec.ConfigSpec{Dim: 8, BatchSize: 8, MaxEpochs: 4, Seed: 42},
	}
	body, err := json.Marshal(&sp)
	if err != nil {
		t.Fatal(err)
	}

	// Race the two transports.
	var (
		wg     sync.WaitGroup
		goJob  *service.Job
		goErr  error
		htCode int
		htJR   jobResponse
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		goJob, goErr = svc.SubmitSpec(sp)
	}()
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		htCode = resp.StatusCode
		_ = json.NewDecoder(resp.Body).Decode(&htJR)
	}()
	wg.Wait()
	if goErr != nil {
		t.Fatal(goErr)
	}
	if htCode != http.StatusAccepted {
		t.Fatalf("HTTP submit: %d", htCode)
	}

	// Both transports resolved to ONE job — the "trains exactly once"
	// witness: the service holds a single Job under a single ID.
	if htJR.ID != goJob.ID() {
		t.Fatalf("transport IDs diverge: HTTP %s vs Go %s", htJR.ID, goJob.ID())
	}
	if byID, ok := svc.JobByID(htJR.ID); !ok || byID != goJob {
		t.Fatal("HTTP and Go submissions are not the same job")
	}

	goRes, err := goJob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	goHash := EmbeddingHash(goRes.Embedding())

	pollDone(t, ts, htJR.ID)
	res, err := http.Get(ts.URL + "/v1/jobs/" + htJR.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var rr resultResponse
	if err := json.NewDecoder(res.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.EmbeddingHash != goHash {
		t.Fatalf("HTTP hash %s != Go hash %s", rr.EmbeddingHash, goHash)
	}

	// And the served embedding is exactly what the Session API computes
	// from the equivalent in-memory arguments.
	b := graph.NewBuilder(12)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	prox, err := seprivgemb.NewProximity("degree", g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Dim = 8
	cfg.BatchSize = 8
	cfg.MaxEpochs = 4
	cfg.Seed = 42
	sessRes, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sessHash := EmbeddingHash(sessRes.Embedding()); sessHash != rr.EmbeddingHash {
		t.Fatalf("served hash %s != Session.Run hash %s", rr.EmbeddingHash, sessHash)
	}
}

func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fetchResult GETs a result URL and decodes the response.
func fetchResult(t *testing.T, url string) (int, http.Header, resultResponse) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr resultResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, resp.Header, rr
}

// resultPaths lists every read of a finished tinySpecJSON job (12 rows)
// that the byte-identity tests compare across sources: each embedding
// mode, every range page including the empty one past the end, and row
// windows at the edges and in the middle.
func resultPaths(id string) []string {
	base := "/v1/jobs/" + id + "/result"
	return []string{
		base,
		base + "?embedding=none",
		base + "?embedding=full",
		base + "?embedding=range",
		base + "?embedding=range&offset=0&limit=5",
		base + "?embedding=range&offset=5&limit=5",
		base + "?embedding=range&offset=10&limit=5",
		base + "?embedding=range&offset=12&limit=5",
		base + "?offset=3",
		base + "/rows/0-12",
		base + "/rows/0-1",
		base + "/rows/2-5",
		base + "/rows/11-12",
		base + "/rows/4-4",
	}
}

// rawReads GETs each path from ts and returns, per path, the status code,
// the Link header and the body verbatim.
func rawReads(t *testing.T, ts *httptest.Server, paths []string) []string {
	t.Helper()
	out := make([]string, len(paths))
	for i, path := range paths {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d %s", path, resp.StatusCode, body)
		}
		out[i] = fmt.Sprintf("%d\nLink: %s\n%s", resp.StatusCode, resp.Header.Get("Link"), body)
	}
	return out
}

// sameReads fails the test on the first path whose read differs.
func sameReads(t *testing.T, what string, paths, want, got []string) {
	t.Helper()
	for i, path := range paths {
		if got[i] != want[i] {
			t.Errorf("%s: GET %s differs from the owner's read\nowner: %s\ngot:   %s", what, path, want[i], got[i])
		}
	}
}

// runTinyJob submits the tiny spec and returns its finished job ID plus
// the full inlined embedding.
func runTinyJob(t *testing.T, ts *httptest.Server, seed int) (string, resultResponse) {
	t.Helper()
	resp, jr := postSpec(t, ts, tinySpecJSON(seed))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	pollDone(t, ts, jr.ID)
	code, _, full := fetchResult(t, ts.URL+"/v1/jobs/"+jr.ID+"/result?embedding=full")
	if code != http.StatusOK {
		t.Fatalf("full result: HTTP %d", code)
	}
	return jr.ID, full
}

// TestResultEmbeddingModes pins the ?embedding= contract: explicit full,
// none, the small-result default, and the 400 on any other mode.
func TestResultEmbeddingModes(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	id, full := runTinyJob(t, ts, 21)
	if full.RowCount != full.Nodes || len(full.Embedding) != full.Nodes {
		t.Fatalf("embedding=full: rowCount %d of %d nodes", full.RowCount, full.Nodes)
	}

	code, _, none := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result?embedding=none")
	if code != http.StatusOK || none.RowCount != 0 || none.Embedding != nil {
		t.Fatalf("embedding=none: HTTP %d, %d rows inlined", code, len(none.Embedding))
	}
	if none.EmbeddingHash != full.EmbeddingHash || none.Nodes != full.Nodes {
		t.Fatal("embedding=none dropped metadata")
	}

	// This 12x8 result is far below maxInlineFloats, so the default mode
	// inlines it in full (the large-result default is pinned in
	// TestParseEmbedQueryDefaults, where shape needs no training run).
	code, _, def := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK || def.RowCount != full.Nodes {
		t.Fatalf("default mode on a small result: HTTP %d rowCount %d", code, def.RowCount)
	}

	for _, mode := range []string{"sideways", "true", "0"} {
		if code, _, _ = fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result?embedding="+mode); code != http.StatusBadRequest {
			t.Fatalf("embedding=%s: HTTP %d, want 400", mode, code)
		}
	}
	if code, _, _ = fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result?embedding=range&offset=x"); code != http.StatusBadRequest {
		t.Fatalf("offset=x: HTTP %d, want 400", code)
	}
	if code, _, _ = fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result?embedding=range&limit=0"); code != http.StatusBadRequest {
		t.Fatalf("limit=0: HTTP %d, want 400", code)
	}
}

// TestResultPagination walks the range cursor and checks the pages
// reassemble the full embedding exactly, with correct rowCount/range
// metadata, Link headers on every non-final page, and the full-matrix
// hash on every page.
func TestResultPagination(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	id, full := runTinyJob(t, ts, 22)

	var paged [][]float64
	next := "/v1/jobs/" + id + "/result?embedding=range&offset=0&limit=5"
	for page := 0; next != ""; page++ {
		if page > 5 {
			t.Fatal("pagination did not terminate")
		}
		code, hdr, pg := fetchResult(t, ts.URL+next)
		if code != http.StatusOK {
			t.Fatalf("page %d: HTTP %d", page, code)
		}
		if pg.EmbeddingHash != full.EmbeddingHash {
			t.Fatalf("page %d: hash %s, want full-matrix %s", page, pg.EmbeddingHash, full.EmbeddingHash)
		}
		if pg.Range == nil || pg.Range.Offset != len(paged) || pg.Range.Limit != 5 {
			t.Fatalf("page %d: range %+v", page, pg.Range)
		}
		if pg.RowCount != len(pg.Embedding) {
			t.Fatalf("page %d: rowCount %d but %d rows inlined", page, pg.RowCount, len(pg.Embedding))
		}
		paged = append(paged, pg.Embedding...)
		link := hdr.Get("Link")
		if pg.Range.Next != "" {
			if link == "" || !strings.Contains(link, pg.Range.Next) || !strings.Contains(link, `rel="next"`) {
				t.Fatalf("page %d: Link header %q does not carry cursor %q", page, link, pg.Range.Next)
			}
		} else if link != "" {
			t.Fatalf("final page carries Link header %q", link)
		}
		next = pg.Range.Next
	}
	if len(paged) != full.Nodes {
		t.Fatalf("pagination yielded %d of %d rows", len(paged), full.Nodes)
	}
	for i := range paged {
		if !float64sEqual(paged[i], full.Embedding[i]) {
			t.Fatalf("paged row %d diverges from the full embedding", i)
		}
	}

	// A past-the-end offset is an empty final page, not an error.
	code, hdr, tail := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result?embedding=range&offset=500&limit=5")
	if code != http.StatusOK || tail.RowCount != 0 || tail.Range == nil || tail.Range.Next != "" || hdr.Get("Link") != "" {
		t.Fatalf("past-the-end page: HTTP %d %+v", code, tail)
	}
}

// TestResultRowsEndpoint pins GET /v1/jobs/{id}/result/rows/{lo}-{hi}.
func TestResultRowsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	id, full := runTinyJob(t, ts, 23)

	code, _, win := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result/rows/3-7")
	if code != http.StatusOK {
		t.Fatalf("rows/3-7: HTTP %d", code)
	}
	if win.RowCount != 4 || win.Range == nil || win.Range.Offset != 3 || win.Range.Limit != 4 {
		t.Fatalf("rows/3-7 metadata: %+v", win)
	}
	if win.EmbeddingHash != full.EmbeddingHash {
		t.Fatal("row window hash does not cover the full matrix")
	}
	for i, row := range win.Embedding {
		if !float64sEqual(row, full.Embedding[3+i]) {
			t.Fatalf("window row %d diverges", 3+i)
		}
	}

	for _, bad := range []string{"7-3", "0-13", "x-y", "-1-4", "3", "3-4-5"} {
		code, _, _ := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result/rows/"+bad)
		if code != http.StatusBadRequest {
			t.Errorf("rows/%s: HTTP %d, want 400", bad, code)
		}
	}
}

// TestUnreadableRowsAre500: a row read that fails on a job whose record
// is sound is the server's fault, not the client's. A peer's artifact
// whose Win chunk frames are overwritten keeps a valid header and row
// index, so the peer still serves its record (?embedding=none is 200),
// but the full embedding and a row window fail to decode: 500, not 400.
func TestUnreadableRowsAre500(t *testing.T) {
	dir := t.TempDir()
	owner, _ := newTestServer(t, service.Options{MaxWorkers: 1, ArtifactDir: dir})
	id, _ := runTinyJob(t, owner, 41)
	peer, _ := newTestServer(t, service.Options{MaxWorkers: 1, ArtifactDir: dir})

	paths, err := filepath.Glob(filepath.Join(dir, id+"-*.result.gob"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("artifact of %s: %v %v", id, paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var hdr struct{ Nodes int }
	ix, err := core.OpenIndexed(bytes.NewReader(raw), int64(len(raw)), &hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := ix.Win[0]; i < ix.Wout[0]; i++ {
		raw[i] = 0xff
	}
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	base := peer.URL + "/v1/jobs/" + id + "/result"
	for url, want := range map[string]int{
		base + "?embedding=none": http.StatusOK,
		base + "?embedding=full": http.StatusInternalServerError,
		base + "/rows/0-4":       http.StatusInternalServerError,
	} {
		if code, _, _ := fetchResult(t, url); code != want {
			t.Errorf("GET %s: HTTP %d, want %d", url, code, want)
		}
	}
}

// TestResultRowsServedFromArtifactStore: with an artifact directory, the
// windowed path decodes from disk through the row index — and still
// matches the in-memory result bit for bit.
func TestResultRowsServedFromArtifactStore(t *testing.T) {
	ts, svc := newTestServer(t, service.Options{MaxWorkers: 2, ArtifactDir: t.TempDir()})
	id, full := runTinyJob(t, ts, 24)

	code, _, win := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result/rows/2-9")
	if code != http.StatusOK || win.RowCount != 7 {
		t.Fatalf("rows/2-9: HTTP %d %+v", code, win)
	}
	for i, row := range win.Embedding {
		if !float64sEqual(row, full.Embedding[2+i]) {
			t.Fatalf("artifact-backed window row %d diverges", 2+i)
		}
	}
	// The Go facade's window agrees, fresh from the artifact index.
	w, err := svc.ResultRows(id, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if w.FullHash == 0 || fmt.Sprintf("%016x", w.FullHash) != full.EmbeddingHash {
		t.Fatalf("ResultRows full hash %016x, want %s", w.FullHash, full.EmbeddingHash)
	}
}

// TestSpilledResultReadsStayWindowed: on a spill-tier job served from
// memory (no artifact store), the result metadata and a small row window
// are read without materializing the embedding — each request allocates
// less than the |V|×r matrix it describes.
func TestSpilledResultReadsStayWindowed(t *testing.T) {
	svc := service.New(service.Options{MaxWorkers: 1})
	t.Cleanup(svc.Close)
	g := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	cfg := core.DefaultConfig()
	cfg.Dim = 128
	cfg.K = 2
	cfg.BatchSize = 8
	cfg.MaxEpochs = 1
	cfg.Seed = 1
	cfg.MemoryBudget = cfg.MinMemoryBudget(g.NumNodes())
	j, err := svc.Submit(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, spilled := res.Model.Win.(*mathx.SpillMatrix); !spilled {
		t.Fatalf("test setup: Win is %T, want a spilled matrix", res.Model.Win)
	}
	winBytes := uint64(g.NumNodes() * cfg.Dim * 8)

	h := New(svc).Handler()
	allocated := func(path string) uint64 {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d %s", path, rec.Code, rec.Body)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, path := range []string{
		"/v1/jobs/" + j.ID() + "/result?embedding=none",
		"/v1/jobs/" + j.ID() + "/result/rows/100-116",
	} {
		allocated(path) // a warm-up read, so one-time allocations are not counted (the full-matrix hash was taken when the job finished)
		if got := allocated(path); got >= winBytes {
			t.Errorf("GET %s allocated %d bytes, not below the %d-byte embedding", path, got, winBytes)
		}
	}
}

// TestParseEmbedQueryDefaults pins the documented inlining policy without
// needing a large training run: above the cutoff the default is
// hash+metadata only; offset/limit alone select range.
func TestParseEmbedQueryDefaults(t *testing.T) {
	parse := func(t *testing.T, raw string, nodes, dim int) (embedMode, int, int, int) {
		t.Helper()
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		mode, lo, hi, limit, err := parseEmbedQuery(q, nodes, dim)
		if err != nil {
			t.Fatalf("parseEmbedQuery(%q): %v", raw, err)
		}
		return mode, lo, hi, limit
	}

	// Small result: default inlines in full.
	if mode, lo, hi, _ := parse(t, "", 100, 8); mode != embedFull || lo != 0 || hi != 100 {
		t.Errorf("small default: mode %v [%d,%d)", mode, lo, hi)
	}
	// A million-node, 128-dim result is far over maxInlineFloats: the
	// default serves hash+metadata only — the PR 4 behavior of inlining
	// on request only survives via explicit full.
	if mode, _, _, _ := parse(t, "", 1<<20, 128); mode != embedNone {
		t.Errorf("large default: mode %v, want embedNone", mode)
	}
	if mode, _, hi, _ := parse(t, "embedding=full", 1<<20, 128); mode != embedFull || hi != 1<<20 {
		t.Errorf("large explicit full: mode %v hi %d", mode, hi)
	}
	// offset/limit imply range without an explicit mode.
	if mode, lo, hi, limit := parse(t, "offset=10&limit=20", 100, 8); mode != embedRange || lo != 10 || hi != 30 || limit != 20 {
		t.Errorf("offset/limit imply range: mode %v [%d,%d) limit %d", mode, lo, hi, limit)
	}
	// range without limit takes the default page size.
	if _, lo, hi, limit := parse(t, "embedding=range", 1<<20, 128); lo != 0 || hi != defaultPageRows || limit != defaultPageRows {
		t.Errorf("default page: [%d,%d) limit %d", lo, hi, limit)
	}
	// The final page clamps to the matrix.
	if _, lo, hi, _ := parse(t, "embedding=range&offset=90&limit=20", 100, 8); lo != 90 || hi != 100 {
		t.Errorf("clamped page: [%d,%d)", lo, hi)
	}
}

// TestMethodsEndpoint pins GET /v1/methods: the full registry listing,
// name-sorted, exactly one default (sepriv), and the proximity flag that
// tells clients which methods consume the spec's proximity field.
func TestMethodsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 1})
	resp, err := http.Get(ts.URL + "/v1/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("methods: HTTP %d", resp.StatusCode)
	}
	var mr spec.MethodsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	want := []string{"dpggan", "dpgvae", "gap", "progap", "sepriv"}
	if len(mr.Methods) != len(want) {
		t.Fatalf("listing has %d methods, want %d: %+v", len(mr.Methods), len(want), mr)
	}
	defaults := 0
	for i, m := range mr.Methods {
		if m.Name != want[i] {
			t.Errorf("method %d = %q, want %q (name-sorted)", i, m.Name, want[i])
		}
		if m.Description == "" {
			t.Errorf("%s served without a description", m.Name)
		}
		if m.Default {
			defaults++
			if m.Name != "sepriv" {
				t.Errorf("default flag on %q", m.Name)
			}
		}
		if m.UsesProximity != (m.Name == "sepriv") {
			t.Errorf("%s usesProximity = %v", m.Name, m.UsesProximity)
		}
	}
	if defaults != 1 {
		t.Errorf("listing has %d defaults, want exactly 1", defaults)
	}
}

// TestSubmitMethodOverHTTP drives a baseline method through the HTTP
// surface: the job and result responses carry the method, the baseline
// job is distinct from the default-method job for the identical spec, and
// malformed method specs are refused with 400 at submit.
func TestSubmitMethodOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})

	withMethod := func(extra string) string {
		return strings.Replace(tinySpecJSON(31), `"proximity"`, extra+`"proximity"`, 1)
	}
	resp, jrGap := postSpec(t, ts, withMethod(`"method": "gap",`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gap submit: HTTP %d", resp.StatusCode)
	}
	if jrGap.Method != "gap" {
		t.Fatalf("gap job response method = %q", jrGap.Method)
	}
	resp, jrDef := postSpec(t, ts, tinySpecJSON(31))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("default submit: HTTP %d", resp.StatusCode)
	}
	if jrDef.Method != "sepriv" {
		t.Fatalf("default job response method = %q", jrDef.Method)
	}
	if jrGap.ID == jrDef.ID {
		t.Fatal("gap and sepriv submissions of one spec shared a job ID")
	}
	pollDone(t, ts, jrGap.ID)
	code, _, rr := fetchResult(t, ts.URL+"/v1/jobs/"+jrGap.ID+"/result?embedding=none")
	if code != http.StatusOK || rr.Method != "gap" {
		t.Fatalf("gap result: HTTP %d method %q", code, rr.Method)
	}
	// A distinct job, and a distinct trainer: the gap embedding is not
	// sepriv's under another ID.
	pollDone(t, ts, jrDef.ID)
	code, _, rrDef := fetchResult(t, ts.URL+"/v1/jobs/"+jrDef.ID+"/result?embedding=none")
	if code != http.StatusOK || rr.EmbeddingHash == "" || rr.EmbeddingHash == rrDef.EmbeddingHash {
		t.Fatalf("gap and sepriv results: HTTP %d, hashes %q and %q", code, rr.EmbeddingHash, rrDef.EmbeddingHash)
	}
	// An alias spelling of the default dedups onto the default job.
	resp, jrAlias := postSpec(t, ts, withMethod(`"method": "SE-PrivGEmb",`))
	if resp.StatusCode != http.StatusAccepted || jrAlias.ID != jrDef.ID {
		t.Fatalf("alias submit: HTTP %d id %s, want id %s", resp.StatusCode, jrAlias.ID, jrDef.ID)
	}

	bad := []struct{ name, body string }{
		{"unknown method", withMethod(`"method": "word2vec",`)},
		{"baseline bad epsilon", strings.Replace(withMethod(`"method": "dpgvae",`), `"dim": 8`, `"dim": 8, "epsilon": -1`, 1)},
		{"baseline bad delta", strings.Replace(withMethod(`"method": "progap",`), `"dim": 8`, `"dim": 8, "delta": 2.0`, 1)},
		{"baseline non-private", strings.Replace(withMethod(`"method": "dpggan",`), `"dim": 8`, `"dim": 8, "private": false`, 1)},
	}
	for _, tc := range bad {
		resp, _ := postSpec(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestResultPaginationFinalPage pins the last-window contract of the range
// cursor: when rowCount divides evenly by the limit the final page must
// still omit range.next and the Link header (the off-by-one would instead
// hand out a cursor to an empty page), and an offset exactly at the row
// count is an empty page, not an error or a further cursor.
func TestResultPaginationFinalPage(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	id, full := runTinyJob(t, ts, 32) // 12 nodes

	checkFinal := func(query string, wantRows int) {
		t.Helper()
		code, hdr, pg := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result?"+query)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", query, code)
		}
		if pg.RowCount != wantRows {
			t.Fatalf("%s: rowCount %d, want %d", query, pg.RowCount, wantRows)
		}
		if pg.Range == nil || pg.Range.Next != "" {
			t.Fatalf("%s: final page carries cursor %+v", query, pg.Range)
		}
		if link := hdr.Get("Link"); link != "" {
			t.Fatalf("%s: final page carries Link header %q", query, link)
		}
	}

	// 12 % 6 == 0: the page ending exactly at the last row is final.
	code, hdr, first := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result?embedding=range&offset=0&limit=6")
	if code != http.StatusOK || first.Range == nil || first.Range.Next == "" || hdr.Get("Link") == "" {
		t.Fatalf("first of two exact pages must carry a cursor: %+v", first.Range)
	}
	checkFinal("embedding=range&offset=6&limit=6", 6)
	checkFinal("embedding=range&offset=8&limit=4", 4)
	// One exact-fit page is both first and final.
	checkFinal("embedding=range&offset=0&limit=12", 12)
	// Offset exactly at the row count: empty page, no cursor.
	checkFinal("embedding=range&offset=12&limit=6", 0)

	// The two exact pages reassemble the full matrix.
	_, _, second := fetchResult(t, ts.URL+"/v1/jobs/"+id+"/result?embedding=range&offset=6&limit=6")
	got := append(append([][]float64{}, first.Embedding...), second.Embedding...)
	if len(got) != full.Nodes {
		t.Fatalf("exact pages reassembled %d of %d rows", len(got), full.Nodes)
	}
	for i := range got {
		if !float64sEqual(got[i], full.Embedding[i]) {
			t.Fatalf("exact-page row %d diverges", i)
		}
	}
}

// TestForgottenJobServedFromArtifactStore: once the job table forgets a
// finished job under its retention limits, its ID still answers status,
// result and row windows from the artifact store, byte-identically to the
// reads served while it was in the table — and 404s without one.
func TestForgottenJobServedFromArtifactStore(t *testing.T) {
	ts, svc := newTestServer(t, service.Options{MaxWorkers: 1, ArtifactDir: t.TempDir(),
		MemoLimits: service.Limits{MaxResults: 1}})
	oldest, full := runTinyJob(t, ts, 31)
	paths := resultPaths(oldest)
	owner := rawReads(t, ts, paths)
	runTinyJob(t, ts, 32)
	runTinyJob(t, ts, 33)
	if _, ok := svc.JobByID(oldest); ok {
		t.Fatal("oldest job still in the table under MaxResults 1")
	}
	// Every result page and row window reads byte for byte as it did
	// while the job was still in the table.
	sameReads(t, "forgotten job", paths, owner, rawReads(t, ts, paths))
	if code, jr := getStatus(t, ts, oldest); code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("status of forgotten job: HTTP %d %+v", code, jr)
	}
	code, _, res := fetchResult(t, ts.URL+"/v1/jobs/"+oldest+"/result?embedding=full")
	if code != http.StatusOK || res.EmbeddingHash != full.EmbeddingHash {
		t.Fatalf("result of forgotten job: HTTP %d hash %s, want %s", code, res.EmbeddingHash, full.EmbeddingHash)
	}
	code, _, win := fetchResult(t, ts.URL+"/v1/jobs/"+oldest+"/result/rows/3-7")
	if code != http.StatusOK || win.RowCount != 4 || !float64sEqual(win.Embedding[0], full.Embedding[3]) {
		t.Fatalf("rows of forgotten job: HTTP %d %+v", code, win)
	}

	bare, _ := newTestServer(t, service.Options{MaxWorkers: 1, MemoLimits: service.Limits{MaxResults: 1}})
	gone, _ := runTinyJob(t, bare, 31)
	runTinyJob(t, bare, 32)
	if code, _ := getStatus(t, bare, gone); code != http.StatusNotFound {
		t.Fatalf("forgotten job without a store: HTTP %d, want 404", code)
	}
}
