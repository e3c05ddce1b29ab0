// The serving walkthrough: the scenario the SoK literature frames for
// private graph embedding — a data owner runs the embedding service, and
// analysts submit declarative JobSpecs over HTTP without ever holding the
// graph object. This example plays both parts in one process: it starts
// the `sepriv serve` server on a random local port, then drives it as a pure
// HTTP client — submit, poll progress, fetch the result — and shows the
// cross-transport guarantee: the identical spec submitted through the Go
// API lands on the same job, the same training run, the same embedding
// hash.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"seprivgemb"
	"seprivgemb/internal/server"
	"seprivgemb/internal/service"
)

func main() {
	// --- Data owner: stand up the service + HTTP front-end. -----------
	svc := service.New(service.Options{
		MaxWorkers:     2,
		TenantInflight: 4, // each tenant may have 4 unfinished jobs
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: server.New(svc).Handler()}
	go httpSrv.Serve(ln)
	base := fmt.Sprintf("http://%s", ln.Addr())
	fmt.Printf("serving on %s\n\n", base)

	// --- Analyst: a declarative request, plain JSON over the wire. ----
	// The power-grid simulation at 20%% scale, DeepWalk preference, a
	// fast config; every omitted hyperparameter takes the paper default.
	spec := `{
		"graph":     {"dataset": {"name": "power", "scale": 0.2, "seed": 7}},
		"proximity": "deepwalk",
		"config":    {"dim": 32, "maxEpochs": 40, "seed": 11},
		"priority":  5,
		"tenant":    "analyst-1"
	}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		log.Fatal(err)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	fmt.Printf("submitted: job %s (%s)\n", job.ID, job.Status)

	// Poll the job to completion, printing live progress.
	for job.Status != "done" {
		time.Sleep(100 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			log.Fatal(err)
		}
		var st struct {
			Status   string `json:"status"`
			Progress *struct {
				Epoch    int     `json:"epoch"`
				Loss     float64 `json:"loss"`
				EpsSpent float64 `json:"epsSpent"`
			} `json:"progress"`
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		job.Status = st.Status
		if st.Progress != nil {
			fmt.Printf("  epoch %3d  loss %.4f  eps-spent %.3f  (%s)\n",
				st.Progress.Epoch+1, st.Progress.Loss, st.Progress.EpsSpent, st.Status)
		}
	}

	r, err := http.Get(base + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		log.Fatal(err)
	}
	var result struct {
		Epochs        int     `json:"epochs"`
		Nodes         int     `json:"nodes"`
		Dim           int     `json:"dim"`
		EpsilonSpent  float64 `json:"epsilonSpent"`
		EmbeddingHash string  `json:"embeddingHash"`
	}
	json.NewDecoder(r.Body).Decode(&result)
	r.Body.Close()
	fmt.Printf("\nresult: %dx%d embedding after %d epochs, (%.2f, 1e-5)-DP\n",
		result.Nodes, result.Dim, result.Epochs, result.EpsilonSpent)
	fmt.Printf("embedding hash over the wire: %s\n", result.EmbeddingHash)

	// --- Row-range serving: fetch only the rows you need. --------------
	// An analyst scoring a handful of candidate nodes never needs the
	// |V|×r matrix: /result/rows/{lo}-{hi} decodes just that window (from
	// the artifact's row index when the server persists artifacts), and
	// embeddingHash still digests the FULL matrix, so the window is
	// verifiable against the whole-result fetch above.
	r, err = http.Get(base + "/v1/jobs/" + job.ID + "/result/rows/0-3")
	if err != nil {
		log.Fatal(err)
	}
	var window struct {
		EmbeddingHash string      `json:"embeddingHash"`
		RowCount      int         `json:"rowCount"`
		Embedding     [][]float64 `json:"embedding"`
	}
	json.NewDecoder(r.Body).Decode(&window)
	r.Body.Close()
	fmt.Printf("\nrow window [0, 3): %d rows, same full hash: %v\n",
		window.RowCount, window.EmbeddingHash == result.EmbeddingHash)
	for i, row := range window.Embedding {
		fmt.Printf("  node %d: [%+.3f %+.3f %+.3f ...]\n", i, row[0], row[1], row[2])
	}

	// Large embeddings page through a cursor instead: ?embedding=range
	// walks the matrix in limit-row pages, each response linking the next
	// (range.next, also a Link: rel="next" header), so neither side ever
	// materializes more than one page.
	pages, rows := 0, 0
	next := "/v1/jobs/" + job.ID + "/result?embedding=range&offset=0&limit=64"
	for next != "" && pages <= 32 {
		pr, err := http.Get(base + next)
		if err != nil {
			log.Fatal(err)
		}
		var pg struct {
			RowCount int `json:"rowCount"`
			Range    *struct {
				Next string `json:"next"`
			} `json:"range"`
		}
		decodeErr := json.NewDecoder(pr.Body).Decode(&pg)
		pr.Body.Close()
		if pr.StatusCode != http.StatusOK || decodeErr != nil || pg.Range == nil {
			log.Fatalf("page %s: HTTP %d, decode %v", next, pr.StatusCode, decodeErr)
		}
		pages, rows = pages+1, rows+pg.RowCount
		next = pg.Range.Next
	}
	fmt.Printf("paged the full embedding: %d rows over %d pages of ≤64\n", rows, pages)

	// --- Cross-transport dedup: the same spec through the Go API. -----
	// SubmitSpec resolves onto the SAME job: no second training run, and
	// the in-memory result hashes to exactly the wire hash.
	goJob, err := svc.SubmitSpec(seprivgemb.JobSpec{
		Graph:     seprivgemb.GraphSource{Dataset: &seprivgemb.DatasetSource{Name: "power", Scale: 0.2, Seed: 7}},
		Proximity: "deepwalk",
		Config:    seprivgemb.ConfigSpec{Dim: 32, MaxEpochs: 40, Seed: 11},
		Priority:  5,
		Tenant:    "analyst-2",
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := goJob.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Go API job ID:                %s (same job: %v)\n",
		goJob.ID(), goJob.ID() == job.ID)
	fmt.Printf("Go API embedding hash:        %s\n", server.EmbeddingHash(res.Embedding()))
	fmt.Println("\none spec, two transports, one training run — that is the contract.")

	// --- Baselines are served too: name a method in the spec. ---------
	// The same graph and config under "method": "gap" is a DIFFERENT job
	// — the method is part of the job identity, so a baseline and the
	// paper's algorithm never collide on a job ID or an artifact. GET
	// /v1/methods lists what this server can train.
	mr, err := http.Get(base + "/v1/methods")
	if err != nil {
		log.Fatal(err)
	}
	var listing struct {
		Methods []struct {
			Name    string `json:"name"`
			Default bool   `json:"default"`
		} `json:"methods"`
	}
	json.NewDecoder(mr.Body).Decode(&listing)
	mr.Body.Close()
	fmt.Printf("\nserved methods:")
	for _, m := range listing.Methods {
		if m.Default {
			fmt.Printf(" %s(default)", m.Name)
		} else {
			fmt.Printf(" %s", m.Name)
		}
	}
	fmt.Println()

	gapSpec := `{
		"graph":     {"dataset": {"name": "power", "scale": 0.2, "seed": 7}},
		"method":    "gap",
		"proximity": "deepwalk",
		"config":    {"dim": 32, "maxEpochs": 40, "seed": 11},
		"tenant":    "analyst-1"
	}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(gapSpec)))
	if err != nil {
		log.Fatal(err)
	}
	var gapJob struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Method string `json:"method"`
	}
	json.NewDecoder(resp.Body).Decode(&gapJob)
	resp.Body.Close()
	fmt.Printf("baseline job %s (method %s, distinct from %s: %v)\n",
		gapJob.ID, gapJob.Method, job.ID, gapJob.ID != job.ID)
	for gapJob.Status != "done" {
		time.Sleep(50 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + gapJob.ID)
		if err != nil {
			log.Fatal(err)
		}
		var st struct {
			Status string `json:"status"`
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		gapJob.Status = st.Status
	}
	r, err = http.Get(base + "/v1/jobs/" + gapJob.ID + "/result?embedding=none")
	if err != nil {
		log.Fatal(err)
	}
	var gapResult struct {
		Method        string `json:"method"`
		Nodes         int    `json:"nodes"`
		Dim           int    `json:"dim"`
		EmbeddingHash string `json:"embeddingHash"`
	}
	json.NewDecoder(r.Body).Decode(&gapResult)
	r.Body.Close()
	fmt.Printf("baseline result: %s, %dx%d, hash %s (≠ sepriv hash: %v)\n",
		gapResult.Method, gapResult.Nodes, gapResult.Dim, gapResult.EmbeddingHash,
		gapResult.EmbeddingHash != result.EmbeddingHash)

	httpSrv.Shutdown(context.Background())
	svc.CancelAll()
	svc.Close()
}
