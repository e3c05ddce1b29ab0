// The replica-set walkthrough (DESIGN.md §14): two server instances
// share one artifact directory and nothing else — no coordinator, no
// RPC between them. A spec submitted to replica A trains exactly once
// (ownership is leased through an atomic lease file in the shared
// store), while replica B — which never saw the submission — streams
// the terminal SSE event and serves row windows for the same job
// straight off the shared disk, bit-identical to A.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"seprivgemb/internal/replica"
	"seprivgemb/internal/server"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/stream"
)

// startReplica stands up one member of the set: its own Service and
// HTTP front-end, coordinated with its peers only through the lease
// manager over the shared directory.
func startReplica(dir, id string) (base string, svc *service.Service) {
	mgr, err := replica.NewManager(dir, id, replica.DefaultTTL)
	if err != nil {
		log.Fatal(err)
	}
	svc = service.New(service.Options{MaxWorkers: 2, ArtifactDir: dir, Replica: mgr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go (&http.Server{Handler: server.New(svc).Handler()}).Serve(ln)
	return fmt.Sprintf("http://%s", ln.Addr()), svc
}

func main() {
	dir, err := os.MkdirTemp("", "replicas-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	baseA, svcA := startReplica(dir, "a")
	baseB, svcB := startReplica(dir, "b")
	fmt.Printf("replica a on %s\nreplica b on %s\nshared store %s\n\n", baseA, baseB, dir)

	// --- Submit to A. -------------------------------------------------
	jobSpec := `{
		"graph":     {"dataset": {"name": "power", "scale": 0.2, "seed": 7}},
		"proximity": "deepwalk",
		"config":    {"dim": 32, "maxEpochs": 30, "seed": 11}
	}`
	resp, err := http.Post(baseA+"/v1/jobs", "application/json", bytes.NewReader([]byte(jobSpec)))
	if err != nil {
		log.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	fmt.Printf("submitted to a: job %s\n", job.ID)

	// --- Stream SSE from B. -------------------------------------------
	// B does not own this job and may never have heard of it; its events
	// route polls the shared store and delivers the terminal event the
	// moment A's artifact lands.
	resp, err = http.Get(baseB + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	var terminal spec.JobEvent
	err = stream.ReadEvents(resp.Body, func(ev spec.JobEvent) bool {
		fmt.Printf("  b streamed: %s (seq %d)\n", ev.Type, ev.Seq)
		terminal = ev
		return !ev.Terminal()
	})
	resp.Body.Close()
	if err != nil || terminal.Status != "done" {
		log.Fatalf("stream from b: terminal %+v, err %v", terminal, err)
	}
	fmt.Printf("terminal from b: status=%s embeddingHash=%s\n\n", terminal.Status, terminal.EmbeddingHash)

	// --- Fetch rows from B. -------------------------------------------
	// The row window decodes from the shared artifact's chunk index; the
	// full-matrix hash proves it is A's training, bit for bit.
	resp, err = http.Get(baseB + "/v1/jobs/" + job.ID + "/result/rows/0-4")
	if err != nil {
		log.Fatal(err)
	}
	var window struct {
		EmbeddingHash string      `json:"embeddingHash"`
		RowCount      int         `json:"rowCount"`
		Embedding     [][]float64 `json:"embedding"`
	}
	json.NewDecoder(resp.Body).Decode(&window)
	resp.Body.Close()
	fmt.Printf("rows [0,4) from b: %d rows, hash matches terminal: %v\n",
		window.RowCount, window.EmbeddingHash == terminal.EmbeddingHash)
	for i, row := range window.Embedding {
		fmt.Printf("  node %d: [%+.3f %+.3f %+.3f ...]\n", i, row[0], row[1], row[2])
	}

	// --- The dedup ledger. --------------------------------------------
	// One training for the whole set: the lease admitted exactly one
	// trainer; the other replica followed the store.
	fmt.Printf("\ntrainings: a=%d b=%d (set total must be 1)\n", svcA.Trainings(), svcB.Trainings())
}
