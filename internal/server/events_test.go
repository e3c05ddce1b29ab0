package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"seprivgemb/internal/replica"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/stream"
)

// replicaPair stands up two server+service members of a replica set over
// one shared artifact directory.
func replicaPair(t *testing.T) (a, b *httptest.Server, svcA, svcB *service.Service) {
	t.Helper()
	dir := t.TempDir()
	mk := func(id string) (*httptest.Server, *service.Service) {
		mgr, err := replica.NewManager(dir, id, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return newTestServer(t, service.Options{MaxWorkers: 2, ArtifactDir: dir, Replica: mgr})
	}
	a, svcA = mk("a")
	b, svcB = mk("b")
	return a, b, svcA, svcB
}

// readAllEvents consumes an SSE response until its terminal event (or
// EOF) and returns everything received.
func readAllEvents(t *testing.T, ts *httptest.Server, id string) []spec.JobEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	var got []spec.JobEvent
	err = stream.ReadEvents(resp.Body, func(ev spec.JobEvent) bool {
		got = append(got, ev)
		return !ev.Terminal()
	})
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	return got
}

// TestEventsLocalStream: a subscriber on the submitting replica sees
// epoch progress and exactly one terminal done event whose hash matches
// the result API.
func TestEventsLocalStream(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	_, jr := postSpec(t, ts, tinySpecJSON(1))
	got := readAllEvents(t, ts, jr.ID)

	if len(got) == 0 {
		t.Fatal("no events")
	}
	last := got[len(got)-1]
	if last.Type != "done" || last.Status != "done" {
		t.Fatalf("stream ended with %+v, want a done terminal", last)
	}
	epochs := 0
	for _, ev := range got[:len(got)-1] {
		if ev.Type != "epoch" || ev.Progress == nil {
			t.Fatalf("non-epoch event before the terminal: %+v", ev)
		}
		if ev.Progress.Stages == nil {
			t.Fatalf("epoch event without stage timings: %+v", ev)
		}
		epochs++
	}
	if epochs == 0 {
		t.Fatal("no epoch events before the terminal")
	}
	// Seq must increase monotonically (the broker may drop epochs for a
	// slow reader, never reorder).
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("Seq not increasing: %+v", got)
		}
	}

	var res resultResponse
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/result?embedding=none")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if last.EmbeddingHash == "" || last.EmbeddingHash != res.EmbeddingHash {
		t.Fatalf("terminal hash %q, result hash %q", last.EmbeddingHash, res.EmbeddingHash)
	}
}

// TestEventsNonOwnerTerminal: an SSE client on a replica that never saw
// the job receives the terminal done event off the shared store.
func TestEventsNonOwnerTerminal(t *testing.T) {
	a, b, _, svcB := replicaPair(t)
	_, jr := postSpec(t, a, tinySpecJSON(2))
	pollDone(t, a, jr.ID)

	if _, local := svcB.JobByID(jr.ID); local {
		t.Fatal("job unexpectedly known to replica b; the test needs the remote path")
	}
	got := readAllEvents(t, b, jr.ID)
	if len(got) != 1 {
		t.Fatalf("non-owner stream delivered %d events, want exactly the terminal: %+v", len(got), got)
	}
	if got[0].Type != "done" || got[0].Job != jr.ID || got[0].EmbeddingHash == "" {
		t.Fatalf("non-owner terminal: %+v", got[0])
	}
}

// TestEventsNonOwnerWaitsForArtifact: the non-owner stream is opened
// BEFORE the job finishes anywhere; it must hold the connection and
// deliver the terminal once the owner's artifact lands.
func TestEventsNonOwnerWaitsForArtifact(t *testing.T) {
	a, b, _, _ := replicaPair(t)
	// Compute the job ID by submitting to a throwaway service first.
	ref, _ := newTestServer(t, service.Options{MaxWorkers: 2})
	_, refJr := postSpec(t, ref, tinySpecJSON(3))
	pollDone(t, ref, refJr.ID)

	done := make(chan []spec.JobEvent, 1)
	go func() { done <- readAllEvents(t, b, refJr.ID) }()

	time.Sleep(50 * time.Millisecond) // let the poll loop spin on the empty store
	_, jr := postSpec(t, a, tinySpecJSON(3))
	if jr.ID != refJr.ID {
		t.Fatalf("job ID not deterministic: %s vs %s", jr.ID, refJr.ID)
	}
	select {
	case got := <-done:
		if len(got) == 0 || got[len(got)-1].Type != "done" {
			t.Fatalf("stream: %+v", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("non-owner stream never delivered the terminal")
	}
}

// TestEventsUnknownJob404: malformed IDs 404 immediately; well-formed
// unknown IDs 404 when no shared store could ever deliver them.
func TestEventsUnknownJob404(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{MaxWorkers: 1}) // no store
	for _, id := range []string{"nonsense", "j0123456789abcdef"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("events %q: HTTP %d, want 404", id, resp.StatusCode)
		}
	}
}

// TestHealthzReplicaIdentity: replica-mode healthz reports the instance
// identity and its held leases; single-instance healthz stays bare.
func TestHealthzReplicaIdentity(t *testing.T) {
	a, _, svcA, _ := replicaPair(t)
	mgr := svcA.ReplicaManager()
	if ok, err := mgr.Acquire("j00000000000000aa"); err != nil || !ok {
		t.Fatalf("Acquire = (%v, %v)", ok, err)
	}
	var hr spec.HealthzResponse
	resp, err := http.Get(a.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Replica != "a" {
		t.Fatalf("healthz: %+v", hr)
	}
	if len(hr.Leases) != 1 || hr.Leases[0].Job != "j00000000000000aa" || hr.Leases[0].Replica != "a" {
		t.Fatalf("healthz leases: %+v", hr.Leases)
	}
}

// TestRemoteStatusResultRows: the status, result, and row-window routes
// all answer on a replica that never saw the job, byte-identically to the
// owner.
func TestRemoteStatusResultRows(t *testing.T) {
	a, b, _, svcB := replicaPair(t)
	_, jr := postSpec(t, a, tinySpecJSON(4))
	pollDone(t, a, jr.ID)
	if _, local := svcB.JobByID(jr.ID); local {
		t.Fatal("job unexpectedly known to replica b")
	}

	// Status from the non-owner: done, no timeline (the artifact has none).
	code, remote := getStatus(t, b, jr.ID)
	if code != http.StatusOK || remote.Status != "done" || remote.ID != jr.ID {
		t.Fatalf("remote status: HTTP %d %+v", code, remote)
	}

	getResult := func(ts *httptest.Server, path string) resultResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		var rr resultResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}

	full := getResult(a, "/v1/jobs/"+jr.ID+"/result?embedding=full")
	remoteFull := getResult(b, "/v1/jobs/"+jr.ID+"/result?embedding=full")
	if remoteFull.EmbeddingHash != full.EmbeddingHash || remoteFull.EmbeddingHash == "" {
		t.Fatalf("remote hash %q, owner hash %q", remoteFull.EmbeddingHash, full.EmbeddingHash)
	}
	if remoteFull.Nodes != full.Nodes || remoteFull.Dim != full.Dim || remoteFull.Epochs != full.Epochs {
		t.Fatalf("remote meta %+v, owner meta %+v", remoteFull, full)
	}
	if len(remoteFull.Embedding) != full.Nodes {
		t.Fatalf("remote full embedding has %d rows, want %d", len(remoteFull.Embedding), full.Nodes)
	}
	for i, row := range remoteFull.Embedding {
		if !float64sEqual(row, full.Embedding[i]) {
			t.Fatalf("remote row %d diverges from the owner's", i)
		}
	}

	win := getResult(b, "/v1/jobs/"+jr.ID+"/result/rows/2-5")
	if win.RowCount != 3 || win.EmbeddingHash != full.EmbeddingHash {
		t.Fatalf("remote window: %+v", win)
	}
	for i, row := range win.Embedding {
		if !float64sEqual(row, full.Embedding[2+i]) {
			t.Fatalf("remote window row %d diverges", 2+i)
		}
	}

	// Range paging on the non-owner carries the cursor contract too.
	page := getResult(b, "/v1/jobs/"+jr.ID+"/result?embedding=range&offset=0&limit=5")
	if page.Range == nil || page.Range.Next == "" || page.RowCount != 5 {
		t.Fatalf("remote page: %+v", page)
	}

	// Every result page and row window reads byte for byte the same from
	// the owner and from the peer.
	paths := resultPaths(jr.ID)
	sameReads(t, "peer replica", paths, rawReads(t, a, paths), rawReads(t, b, paths))

	// Unknown everywhere is still 404.
	resp, err := http.Get(b.URL + "/v1/jobs/j0123456789abcdef/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job result on replica: HTTP %d, want 404", resp.StatusCode)
	}
}
