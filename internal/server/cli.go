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

// Main is the entry point of `sepriv serve`: serve until SIGINT/SIGTERM.
// Returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, args, stdout, stderr)
}

// serve parses flags, stands up a Service + HTTP front-end, and runs until
// ctx is done, then drains gracefully (stop accepting, cancel in-flight
// jobs at their next epoch boundary, wait for them to settle). Returns the
// process exit code.
func serve(ctx context.Context, args []string, stdout, stderr io.Writer) int {
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

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "sepriv serve: shutting down")
	case err := <-serveErr:
		fmt.Fprintf(stderr, "sepriv serve: %v\n", err)
		svc.CancelAll()
		svc.Close()
		return 1
	}

	// Graceful drain: stop accepting, then cancel in-flight jobs — each
	// stops at its next epoch boundary with a resumable partial — and wait
	// for the queue to settle.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	svc.CancelAll()
	svc.Close()
	return 0
}

// readBody reads resp's body: all of it when the status is wantCode (a
// 1024-row page at r = 128 is about 3 MB of JSON), else at most 1 MiB.
func readBody(resp *http.Response, wantCode int) ([]byte, error) {
	if resp.StatusCode == wantCode {
		return io.ReadAll(resp.Body)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
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
	body, err := readBody(resp, wantCode)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantCode {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
