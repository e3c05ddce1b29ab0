package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seprivgemb/internal/methods"
	"seprivgemb/internal/replica"
	"seprivgemb/internal/service"
)

// Main is the entry point of `sepriv serve`: parse flags, stand up a
// Service + HTTP front-end, and run until SIGINT/SIGTERM, then drain
// gracefully (stop accepting, cancel in-flight jobs at their next epoch
// boundary, wait for them to settle). Returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sepriv serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8470", "listen address (host:port; port 0 picks a free port)")
		maxWorkers  = fs.Int("max-workers", 0, "total training-worker slots across all jobs (0 = GOMAXPROCS)")
		graphDir    = fs.String("graph-dir", "", "root directory for JobSpec file graph sources (empty disables them)")
		artifactDir = fs.String("artifact-dir", "", "persist completed results here and serve repeats across restarts")
		tenantJobs  = fs.Int("tenant-inflight", 0, "max unfinished jobs per tenant; excess submissions get 429 (0 = unlimited)")
		maxTrainMem = fs.String("max-train-mem", "", "per-job cap on resident training state, e.g. 2GiB: oversized jobs are rejected (400) unless their spec sets a memoryBudget under the cap (empty = unlimited)")
		memoMax     = fs.Int("memo-max-results", 1024, "max finished jobs kept in memory before LRU eviction; an evicted job is served from -artifact-dir, or 404s without one (0 = unbounded)")
		memoTTL     = fs.Duration("memo-ttl", time.Hour, "forget a finished job this long after its last use (0 = never)")
		replicaID   = fs.String("replica-id", "", "join the replica set sharing -artifact-dir under this identity: job ownership is leased through the store, and results land once per set")
		leaseTTL    = fs.Duration("lease-ttl", replica.DefaultTTL, "job-ownership lease lifetime; a crashed owner's lease expires after this and a peer takes the job over")
		selftest    = fs.Bool("selftest", false, "serve on a random port, drive one tiny job through the HTTP API, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := service.Options{
		MaxWorkers:     *maxWorkers,
		MemoLimits:     service.Limits{MaxResults: *memoMax, ResultTTL: *memoTTL},
		TenantInflight: *tenantJobs,
		GraphDir:       *graphDir,
		ArtifactDir:    *artifactDir,
	}
	if *maxTrainMem != "" {
		capBytes, err := ParseByteSize(*maxTrainMem)
		if err != nil {
			fmt.Fprintf(stderr, "sepriv serve: -max-train-mem: %v\n", err)
			return 2
		}
		opts.MaxTrainingBytes = capBytes
	}
	if *replicaID != "" {
		if *artifactDir == "" {
			fmt.Fprintln(stderr, "sepriv serve: -replica-id requires -artifact-dir (the shared store is the lease substrate)")
			return 2
		}
		mgr, err := replica.NewManager(*artifactDir, *replicaID, *leaseTTL)
		if err != nil {
			fmt.Fprintf(stderr, "sepriv serve: %v\n", err)
			return 1
		}
		opts.Replica = mgr
	}
	if *selftest {
		*addr = "127.0.0.1:0"
	}

	svc := service.New(opts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "sepriv serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "sepriv serve: listening on http://%s\n", ln.Addr())
	fmt.Fprintf(stdout, "sepriv serve: methods: %s (default %s)\n",
		strings.Join(methods.Names(), ", "), methods.Default)
	if opts.Replica != nil {
		fmt.Fprintf(stdout, "sepriv serve: replica %q in the set sharing %s (lease TTL %v)\n",
			*replicaID, *artifactDir, *leaseTTL)
	}
	httpSrv := &http.Server{Handler: New(svc).Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	code := 0
	if *selftest {
		if err := Selftest(fmt.Sprintf("http://%s", ln.Addr()), stdout); err != nil {
			fmt.Fprintf(stderr, "sepriv serve: selftest: %v\n", err)
			code = 1
		} else {
			fmt.Fprintln(stdout, "sepriv serve: selftest OK")
		}
		stop()
	} else {
		select {
		case <-ctx.Done():
			fmt.Fprintln(stdout, "sepriv serve: shutting down")
		case err := <-serveErr:
			fmt.Fprintf(stderr, "sepriv serve: %v\n", err)
			svc.CancelAll()
			svc.Close()
			return 1
		}
	}

	// Graceful drain: stop accepting, then cancel in-flight jobs — each
	// stops at its next epoch boundary with a resumable partial — and wait
	// for the queue to settle.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	svc.CancelAll()
	svc.Close()
	return code
}

// Selftest drives the serving loop end to end over real HTTP: submit a
// tiny inline job, poll status to done, fetch the full result, then check
// the row-range serving contract — an explicit /result/rows/{lo}-{hi}
// window and a cursor-paged walk must both reproduce the corresponding
// rows of the full embedding bit-exactly under the same full-matrix hash.
// It is the `make serve-smoke` payload.
func Selftest(baseURL string, out io.Writer) error {
	client := &http.Client{Timeout: 10 * time.Second}

	var health map[string]string
	if err := getJSON(client, baseURL+"/v1/healthz", http.StatusOK, &health); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// The trainer registry must list every method, exactly one of them the
	// default — the discovery contract clients build method pickers from.
	var reg struct {
		Methods []struct {
			Name    string `json:"name"`
			Default bool   `json:"default"`
		} `json:"methods"`
	}
	if err := getJSON(client, baseURL+"/v1/methods", http.StatusOK, &reg); err != nil {
		return fmt.Errorf("methods: %w", err)
	}
	listed := make(map[string]bool)
	defaults := 0
	for _, m := range reg.Methods {
		listed[m.Name] = true
		if m.Default {
			defaults++
		}
	}
	for _, want := range []string{"sepriv", "dpggan", "dpgvae", "gap", "progap"} {
		if !listed[want] {
			return fmt.Errorf("methods listing misses %q: %+v", want, reg.Methods)
		}
	}
	if defaults != 1 {
		return fmt.Errorf("methods listing has %d defaults, want 1", defaults)
	}

	const inlineGraph = `{"inline": {"nodes": 12, "edges": [
			[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[11,0],
			[0,6],[1,7],[2,8],[3,9]
		]}}`
	const body = `{
		"graph": ` + inlineGraph + `,
		"proximity": "degree",
		"config": {"dim": 8, "batchSize": 8, "maxEpochs": 4, "seed": 42}
	}`
	resp, err := client.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := decodeAs(resp, http.StatusAccepted, &job); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(out, "selftest: submitted job %s\n", job.ID)

	deadline := time.Now().Add(60 * time.Second)
	for job.Status != "done" {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck in %q", job.ID, job.Status)
		}
		if job.Status == "failed" || job.Status == "canceled" {
			return fmt.Errorf("job %s ended %q", job.ID, job.Status)
		}
		time.Sleep(50 * time.Millisecond)
		if err := getJSON(client, baseURL+"/v1/jobs/"+job.ID, http.StatusOK, &job); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
	}

	var result struct {
		Epochs        int         `json:"epochs"`
		Stopped       string      `json:"stopped"`
		Nodes         int         `json:"nodes"`
		EmbeddingHash string      `json:"embeddingHash"`
		RowCount      int         `json:"rowCount"`
		Embedding     [][]float64 `json:"embedding"`
	}
	if err := getJSON(client, baseURL+"/v1/jobs/"+job.ID+"/result?embedding=full", http.StatusOK, &result); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if result.EmbeddingHash == "" || result.Epochs != 4 || result.RowCount != result.Nodes {
		return fmt.Errorf("result incomplete: %+v", result)
	}
	fmt.Fprintf(out, "selftest: job %s done in %d epochs, embedding hash %s\n",
		job.ID, result.Epochs, result.EmbeddingHash)

	// Row-range serving: an explicit window must be the corresponding
	// slice of the full matrix, bit for bit, under the same full hash.
	var window struct {
		EmbeddingHash string      `json:"embeddingHash"`
		RowCount      int         `json:"rowCount"`
		Embedding     [][]float64 `json:"embedding"`
	}
	if err := getJSON(client, baseURL+"/v1/jobs/"+job.ID+"/result/rows/2-5", http.StatusOK, &window); err != nil {
		return fmt.Errorf("result rows: %w", err)
	}
	if window.EmbeddingHash != result.EmbeddingHash || window.RowCount != 3 {
		return fmt.Errorf("row window metadata: %+v", window)
	}
	for i, row := range window.Embedding {
		if !float64sEqual(row, result.Embedding[2+i]) {
			return fmt.Errorf("window row %d diverges from the full embedding", 2+i)
		}
	}

	// Pagination: walk the range cursor and check it reassembles the full
	// matrix exactly, page sizes and Link headers included.
	next := "/v1/jobs/" + job.ID + "/result?embedding=range&offset=0&limit=5"
	var paged [][]float64
	for pages := 0; next != ""; pages++ {
		if pages > 10 {
			return fmt.Errorf("pagination did not terminate")
		}
		var pg struct {
			EmbeddingHash string `json:"embeddingHash"`
			RowCount      int    `json:"rowCount"`
			Range         *struct {
				Offset int    `json:"offset"`
				Next   string `json:"next"`
			} `json:"range"`
			Embedding [][]float64 `json:"embedding"`
		}
		if err := getJSON(client, baseURL+next, http.StatusOK, &pg); err != nil {
			return fmt.Errorf("page %s: %w", next, err)
		}
		if pg.EmbeddingHash != result.EmbeddingHash || pg.Range == nil || pg.Range.Offset != len(paged) {
			return fmt.Errorf("page metadata at offset %d: %+v", len(paged), pg)
		}
		paged = append(paged, pg.Embedding...)
		next = pg.Range.Next
	}
	if len(paged) != result.Nodes {
		return fmt.Errorf("pagination yielded %d rows, want %d", len(paged), result.Nodes)
	}
	for i, row := range paged {
		if !float64sEqual(row, result.Embedding[i]) {
			return fmt.Errorf("paged row %d diverges from the full embedding", i)
		}
	}
	fmt.Fprintf(out, "selftest: row window and %d-row pagination match the full embedding\n", len(paged))

	// A baseline method over the SAME graph and config must be a different
	// job (method is part of the dedup key) that also runs to completion
	// and serves a result — the registry wiring end to end.
	const gapBody = `{
		"graph": ` + inlineGraph + `,
		"method": "gap",
		"proximity": "degree",
		"config": {"dim": 8, "batchSize": 8, "maxEpochs": 4, "seed": 42}
	}`
	resp, err = client.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader([]byte(gapBody)))
	if err != nil {
		return fmt.Errorf("submit gap: %w", err)
	}
	var gapJob struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Method string `json:"method"`
	}
	if err := decodeAs(resp, http.StatusAccepted, &gapJob); err != nil {
		return fmt.Errorf("submit gap: %w", err)
	}
	if gapJob.ID == job.ID {
		return fmt.Errorf("gap job deduplicated onto the sepriv job %s", job.ID)
	}
	if gapJob.Method != "gap" {
		return fmt.Errorf("gap job reports method %q", gapJob.Method)
	}
	for gapJob.Status != "done" {
		if time.Now().After(deadline) {
			return fmt.Errorf("gap job %s stuck in %q", gapJob.ID, gapJob.Status)
		}
		if gapJob.Status == "failed" || gapJob.Status == "canceled" {
			return fmt.Errorf("gap job %s ended %q", gapJob.ID, gapJob.Status)
		}
		time.Sleep(50 * time.Millisecond)
		if err := getJSON(client, baseURL+"/v1/jobs/"+gapJob.ID, http.StatusOK, &gapJob); err != nil {
			return fmt.Errorf("poll gap: %w", err)
		}
	}
	var gapResult struct {
		Method        string `json:"method"`
		Nodes         int    `json:"nodes"`
		EmbeddingHash string `json:"embeddingHash"`
	}
	if err := getJSON(client, baseURL+"/v1/jobs/"+gapJob.ID+"/result?embedding=none", http.StatusOK, &gapResult); err != nil {
		return fmt.Errorf("gap result: %w", err)
	}
	if gapResult.Method != "gap" || gapResult.Nodes != result.Nodes || gapResult.EmbeddingHash == "" {
		return fmt.Errorf("gap result incomplete: %+v", gapResult)
	}
	if gapResult.EmbeddingHash == result.EmbeddingHash {
		return fmt.Errorf("gap and sepriv produced the same embedding hash %s", result.EmbeddingHash)
	}
	fmt.Fprintf(out, "selftest: baseline job %s (gap) served distinctly from %s\n", gapJob.ID, job.ID)

	// Sweep orchestration end to end: a tiny 2-method × 2-ε grid must
	// complete with every cell done, serve an aggregated table, and — the
	// determinism contract — a resubmission of the same grid must land on
	// the same sweep ID and serve the BYTE-identical result without
	// retraining a single cell.
	const sweepBody = `{
		"graphs": [` + inlineGraph + `],
		"methods": ["sepriv", "gap"],
		"epsilons": [0.5, 1.0],
		"seeds": [7],
		"proximity": "degree",
		"config": {"dim": 8, "batchSize": 8, "maxEpochs": 2}
	}`
	postSweep := func() (string, error) {
		resp, err := client.Post(baseURL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(sweepBody)))
		if err != nil {
			return "", err
		}
		var sw struct {
			ID string `json:"id"`
		}
		if err := decodeAs(resp, http.StatusAccepted, &sw); err != nil {
			return "", err
		}
		return sw.ID, nil
	}
	sweepID, err := postSweep()
	if err != nil {
		return fmt.Errorf("submit sweep: %w", err)
	}
	fmt.Fprintf(out, "selftest: submitted sweep %s\n", sweepID)
	var sw struct {
		Status string `json:"status"`
		Counts struct {
			Done   int `json:"done"`
			Failed int `json:"failed"`
		} `json:"counts"`
	}
	for sw.Status != "done" {
		if time.Now().After(deadline) {
			return fmt.Errorf("sweep %s stuck in %q", sweepID, sw.Status)
		}
		if sw.Status == "canceled" {
			return fmt.Errorf("sweep %s ended %q", sweepID, sw.Status)
		}
		time.Sleep(50 * time.Millisecond)
		if err := getJSON(client, baseURL+"/v1/sweeps/"+sweepID, http.StatusOK, &sw); err != nil {
			return fmt.Errorf("poll sweep: %w", err)
		}
	}
	if sw.Counts.Done != 4 || sw.Counts.Failed != 0 {
		return fmt.Errorf("sweep %s finished with counts %+v, want 4 done", sweepID, sw.Counts)
	}
	getResultBytes := func() ([]byte, error) {
		resp, err := client.Get(baseURL + "/v1/sweeps/" + sweepID + "/result")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return body, nil
	}
	table1, err := getResultBytes()
	if err != nil {
		return fmt.Errorf("sweep result: %w", err)
	}
	resubID, err := postSweep()
	if err != nil {
		return fmt.Errorf("resubmit sweep: %w", err)
	}
	if resubID != sweepID {
		return fmt.Errorf("resubmitted sweep got ID %s, want %s", resubID, sweepID)
	}
	table2, err := getResultBytes()
	if err != nil {
		return fmt.Errorf("resubmitted sweep result: %w", err)
	}
	if !bytes.Equal(table1, table2) {
		return fmt.Errorf("sweep table changed on resubmission:\n%s\nvs\n%s", table1, table2)
	}
	fmt.Fprintf(out, "selftest: sweep %s table bit-identical on resubmission (%d cells)\n", sweepID, sw.Counts.Done)
	return nil
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

// getJSON fetches url and decodes the wantCode body into v. Retryable
// statuses (429/503) are waited out per the server's Retry-After hint —
// see backoff.go — so `sepriv fetch` and `sepriv sweep -watch` poll
// politely through quota pushback and drains.
func getJSON(client *http.Client, url string, wantCode int, v any) error {
	resp, err := defaultRetryPolicy().get(client, url)
	if err != nil {
		return err
	}
	return decodeAs(resp, wantCode, v)
}

func decodeAs(resp *http.Response, wantCode int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != wantCode {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
