package main

import (
	"encoding/json"
	"time"

	"seprivgemb/internal/datasets"
	"seprivgemb/internal/spec"
)

// graphSeed seeds every simulated graph, so a workload's graph — and with
// it the work per job — is the same at every benchmark seed; the seed
// varies job seeds and read choices only.
const graphSeed = 1

// Run-shape constants shared by the workloads.
const (
	// setupReps is how many times a run builds its stack from scratch;
	// setup_s is the median of their CPU times and the last build is
	// measured.
	setupReps = 3
	// windowRows is the size of every row read.
	windowRows = 16
	// checkJobs is how many seed-chosen jobs per run are retrained in
	// process to check the served embedding hash.
	checkJobs = 2
	// bitCheckEvery: one read in this many is compared bit for bit with
	// the full embedding fetched in setup.
	bitCheckEvery = 50
	// traceJobs and traceReads cap the traced run's replays.
	traceJobs  = 10
	traceReads = 2000
	// traceJobShare is the part of a traced run spent on jobs; reads get
	// the rest.
	traceJobShare = 0.6
)

// jobShape is the JobSpec a workload submits, minus the per-job config
// seed.
type jobShape struct {
	dataset string
	scale   float64
	// inline sends the dataset's edge list in every body instead of
	// naming the dataset, so the graph is foreign to the server's memo.
	inline       bool
	proximity    string
	maxEpochs    int // 0: the paper's 200
	memoryBudget int64
	workers      int
}

// workload is one row of the workload table. Sizes are constants here,
// not flags, so every run of a workload does the same work.
type workload struct {
	name string
	// clients is the closed-loop client count of a training workload,
	// and serve-rows' worker count in both phases.
	clients int
	// tail is the latency percentile reported beside the median: the
	// highest with about ten samples beyond it at the workload's usual
	// operation count.
	tail float64
	// maxJobs caps a training workload's measured jobs (0: as many as
	// the window holds); the reduced table in the tests sets it.
	maxJobs int
	// job is what a training workload submits; serve-rows submits it as
	// its background write.
	job jobShape
	// rssAfter: a training workload reads its peak RSS when this many
	// measured jobs have finished. The service keeps every finished
	// result, so memory grows with the jobs served; reading it after a
	// fixed count keeps a faster commit from reading as a bigger one. The
	// count is about half of what a run finishes on a contended host.
	rssAfter int

	// serve-rows only: replicas over one artifact directory, the jobs
	// trained in setup and read back, and the phase A schedule.
	replicas     int
	setupJobs    int
	setupJob     jobShape
	readRate     float64 // reads/s
	resubmitRate float64 // dedup resubmissions/s
	newJobEvery  time.Duration
}

func (w workload) serving() bool { return w.replicas > 0 }

// traceLimit is how many jobs a traced run replays.
func (w workload) traceLimit() int {
	if w.maxJobs > 0 {
		return min(traceJobs, w.maxJobs)
	}
	return traceJobs
}

// workloads is the benchmark's workload table; BENCHMARK.json and
// README.md give the reason for each.
var workloads = []workload{
	{
		// The memo shares graph and proximity, so the engine stages set
		// the job time.
		name:     "train-dataset",
		clients:  2,
		tail:     0.9,
		job:      jobShape{dataset: "chameleon", scale: 0.35, proximity: "deepwalk"},
		rssAfter: 16,
	},
	{
		// The graph is foreign to the memo: lazy Katz rows per subgraph.
		name:     "train-inline-katz",
		clients:  2,
		tail:     0.9,
		job:      jobShape{dataset: "arxiv", scale: 0.1, inline: true, proximity: "katz", maxEpochs: 100},
		rssAfter: 10,
	},
	{
		// Dense state would be 43.8 MiB; the budget sits just above
		// MinMemoryBudget (30.1 MiB).
		name:     "train-spill",
		clients:  1,
		tail:     0.9,
		job:      jobShape{dataset: "dblp", scale: 0.01, proximity: "deepwalk", memoryBudget: 32 << 20, workers: 2},
		rssAfter: 3,
	},
	{
		// Reads at about a sixth of the two-client read capacity, so the
		// open loop measures latency, not a backlog.
		name:         "serve-rows",
		clients:      2,
		tail:         0.99,
		job:          jobShape{dataset: "chameleon", scale: 1},
		replicas:     2,
		setupJobs:    16,
		setupJob:     jobShape{dataset: "chameleon", scale: 1, maxEpochs: 20},
		readRate:     200,
		resubmitRate: 4,
		newJobEvery:  2 * time.Second,
	},
}

// jobSeed is the config seed of job i of a run at benchmark seed s.
func jobSeed(s int64, i int) uint64 { return uint64(1000*s + int64(i)) }

// jobs renders a job shape into request bodies. The inline edge list is
// generated once, outside any timed section.
type jobs struct {
	shape  jobShape
	inline *spec.InlineSource
}

func newJobs(shape jobShape) (jobs, error) {
	if shape.proximity == "" {
		shape.proximity = "deepwalk"
	}
	j := jobs{shape: shape}
	if shape.inline {
		g, err := datasets.Generate(shape.dataset, shape.scale, graphSeed)
		if err != nil {
			return j, err
		}
		src := &spec.InlineSource{Nodes: g.NumNodes(), Edges: make([][2]int, g.NumEdges())}
		for i, e := range g.Edges() {
			src.Edges[i] = [2]int{int(e.U), int(e.V)}
		}
		j.inline = src
	}
	return j, nil
}

// body returns the JSON JobSpec with the given config seed.
func (j jobs) body(seed uint64) []byte {
	sp := spec.JobSpec{
		Proximity: j.shape.proximity,
		Config: spec.ConfigSpec{
			MaxEpochs:    j.shape.maxEpochs,
			MemoryBudget: j.shape.memoryBudget,
			Workers:      j.shape.workers,
			Seed:         seed,
		},
	}
	if j.inline != nil {
		sp.Graph.Inline = j.inline
	} else {
		sp.Graph.Dataset = &spec.DatasetSource{Name: j.shape.dataset, Scale: j.shape.scale, Seed: graphSeed}
	}
	b, err := json.Marshal(sp)
	if err != nil {
		panic(err) // a JobSpec of plain values always encodes
	}
	return b
}
