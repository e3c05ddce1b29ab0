package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"seprivgemb/internal/experiments"
	"seprivgemb/internal/replica"
	"seprivgemb/internal/server"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/stream"
)

// maxWorkers is every service's worker-slot bound: the 2 CPUs of the host
// the workloads were sized on, fixed so a recording made elsewhere still
// runs the same schedule.
const maxWorkers = 2

// stack is the system under test: one in-process seprivd replica per
// service, each behind its own loopback HTTP listener, all over one
// temporary artifact directory. Each replica gets its own Memo so the
// replay can consult exactly the cache the serving replica used.
type stack struct {
	dir    string
	svcs   []*service.Service
	memos  []*experiments.Memo
	srvs   []*httptest.Server
	urls   []string
	client *http.Client
}

// newStack starts `replicas` services over one fresh artifact directory;
// more than one makes them a lease-coordinated replica set.
func newStack(replicas int) (*stack, error) {
	dir, err := os.MkdirTemp("", "seprivbench-*")
	if err != nil {
		return nil, err
	}
	st := &stack{
		dir: dir,
		// Two clients each hold an event stream open while they submit
		// and read, so keep more than the default two idle connections
		// per replica: every request then reuses a warm connection.
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
	}
	for i := range replicas {
		opts := service.Options{MaxWorkers: maxWorkers, ArtifactDir: dir, Memo: experiments.NewMemo()}
		if replicas > 1 {
			mgr, err := replica.NewManager(dir, fmt.Sprintf("bench-%d", i), replica.DefaultTTL)
			if err != nil {
				st.close()
				return nil, err
			}
			opts.Replica = mgr
		}
		svc := service.New(opts)
		st.svcs = append(st.svcs, svc)
		st.memos = append(st.memos, opts.Memo)
		ts := httptest.NewServer(server.New(svc).Handler())
		st.srvs = append(st.srvs, ts)
		st.urls = append(st.urls, ts.URL)
	}
	return st, nil
}

// close stops the listeners, cancels and drains every job, and removes
// the artifact directory.
func (st *stack) close() {
	for i, ts := range st.srvs {
		ts.Close()
		st.svcs[i].CancelAll()
		st.svcs[i].Close()
	}
	st.client.CloseIdleConnections()
	os.RemoveAll(st.dir)
}

// trainings sums Service.Trainings across the replicas.
func (st *stack) trainings() uint64 {
	var n uint64
	for _, svc := range st.svcs {
		n += svc.Trainings()
	}
	return n
}

// submit POSTs a JobSpec body to replica r and returns the job view.
func (st *stack) submit(r int, body []byte) (spec.JobResponse, error) {
	var job spec.JobResponse
	resp, err := st.client.Post(st.urls[r]+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	if err := decodeBody(resp, http.StatusAccepted, &job); err != nil {
		return job, fmt.Errorf("submit: %w", err)
	}
	return job, nil
}

// follow reads job id's SSE stream on replica r to its terminal event and
// returns the number of events seen and the done event's embedding hash;
// any terminal other than done is an error.
func (st *stack) follow(r int, id string) (events int, hash string, err error) {
	resp, err := st.client.Get(st.urls[r] + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	var last spec.JobEvent
	err = stream.ReadEvents(resp.Body, func(ev spec.JobEvent) bool {
		events++
		last = ev
		return !ev.Terminal()
	})
	switch {
	case err != nil:
		return events, "", fmt.Errorf("events %s: %w", id, err)
	case last.Type != "done":
		return events, "", fmt.Errorf("job %s ended %q: %s", id, last.Type, last.Error)
	case last.EmbeddingHash == "":
		return events, "", fmt.Errorf("job %s done without an embedding hash", id)
	}
	return events, last.EmbeddingHash, nil
}

// job fetches job id's status view from replica r.
func (st *stack) job(r int, id string) (spec.JobResponse, error) {
	var job spec.JobResponse
	err := st.getJSON(st.urls[r]+"/v1/jobs/"+id, &job)
	return job, err
}

// rows fetches the row window [lo, hi) of job id from replica r.
func (st *stack) rows(r int, id string, lo, hi int) (spec.ResultResponse, error) {
	var res spec.ResultResponse
	err := st.getJSON(fmt.Sprintf("%s/v1/jobs/%s/result/rows/%d-%d", st.urls[r], id, lo, hi), &res)
	return res, err
}

// result fetches job id's result metadata, without rows, from replica r.
func (st *stack) result(r int, id string) (spec.ResultResponse, error) {
	var res spec.ResultResponse
	err := st.getJSON(st.urls[r]+"/v1/jobs/"+id+"/result?embedding=none", &res)
	return res, err
}

func (st *stack) getJSON(url string, v any) error {
	resp, err := st.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeBody(resp, http.StatusOK, v)
}

// decodeBody decodes a JSON response with the wanted status, reporting
// any other status with its error body.
func decodeBody(resp *http.Response, want int, v any) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, v)
}
