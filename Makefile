GO ?= go
# Benchmark → JSON recording for the perf trajectory; bump per PR.
BENCH_JSON ?= BENCH_pr9.json
# The previous PR's recording, the regression baseline for bench-diff.
BENCH_BASE ?= BENCH_pr8.json
# The replica-set load report recorded by `make loadtest`.
LOAD_JSON ?= BENCH_load_pr9.json
# The sharded-stage benchmarks: the DP noise/update stage, the one-shot
# graph passes, the whole-train scaling curve, the sharded evaluation
# metrics (PR 3), the sharded proximity stats/edge-weight scans (PR 4),
# and the mathx kernel layer (PR 7) — unrolled reductions plus the fused
# skip-gram kernels.
BENCH_PAT ?= ApplyUpdate|GenerateSubgraphs|ProximityMaterialize|TrainWorkers|StrucEquWorkers|LinkAUCWorkers|ComputeStatsWorkers|EdgeWeightsWorkers|BenchmarkDot|BenchmarkNorm2Sq|BenchmarkAXPY|BenchmarkDotSigmoid|BenchmarkAXPY2|BenchmarkScaleTo2|BenchmarkClipScaleAXPY
# Per-target fuzz budget for fuzz-kernels (Go's -fuzztime syntax).
FUZZTIME ?= 10s

.PHONY: build test vet race fmt-check md-check bench-check bench bench-json bench-diff fuzz-kernels serve-smoke loadtest loadtest-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail on any file gofmt would rewrite (the CI hygiene gate). The
# examples/ tree is gated explicitly — it holds runnable walkthroughs
# that readers copy verbatim, so drift there is doc drift.
fmt-check:
	@out=$$(gofmt -l . && gofmt -l examples); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out" | sort -u; exit 1; \
	fi

# Markdown hygiene: link-check README/DESIGN/ROADMAP (and examples/) and
# fail on dangling heading anchors — DESIGN.md is 15 cross-referenced
# sections now, so a renamed heading must break CI, not a reader.
md-check:
	$(GO) run ./scripts/mdcheck .

# Vet and test the end-to-end benchmark module (bench/, its own go.mod).
# It imports core, service, experiments and spec internals, and the root
# `go test ./...` does not descend into it — so an internal API change
# that breaks the benchmark fails here, not at benchmark time.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Race-detect the concurrent paths (the parallel training engine and the
# experiments sweep runner live under internal/).
race:
	$(GO) test -race ./internal/...

# Concurrency + experiment benchmarks; BenchmarkTrainWorkers tracks the
# parallel engine's scaling curve.
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Record the sharded-stage benchmarks as JSON (run on a multi-core host to
# see the worker-count sub-benchmarks separate; single-CPU containers show
# flat curves). Emits $(BENCH_JSON) in the repo root.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem ./... \
		| tee /dev/stderr | sh scripts/bench_json.sh > $(BENCH_JSON)

# Compare $(BENCH_JSON) against the previous PR's recording; fails on any
# benchmark whose ns/op regressed by more than 10%. A missing baseline
# (fresh checkout, expired CI artifact) skips the check rather than
# blocking — the comparison is a tripwire for the same-host trajectory,
# not a cross-host truth.
bench-diff:
	sh scripts/bench_json.sh diff $(BENCH_BASE) $(BENCH_JSON)

# Fuzz every mathx kernel against its naive oracle (see kernels_test.go
# for which are bit-equality contracts and which tolerance ones). Go runs
# one fuzz target per invocation, so iterate; $(FUZZTIME) bounds each.
fuzz-kernels:
	@for f in FuzzDot FuzzAXPY FuzzDotSigmoid FuzzAXPY2 FuzzScaleTo2 FuzzClipScaleAXPY; do \
		echo "fuzz $$f ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) ./internal/mathx/ || exit 1; \
	done

# Serving smoke test: start the HTTP job server on a random port, submit
# a tiny inline job over real HTTP, poll it to done, and fetch the result.
serve-smoke:
	$(GO) run ./cmd/seprivd -selftest

# Replica-set load test: two in-process replicas over one shared artifact
# dir under a readers/writers mix; records rows/s and the read-latency
# histogram as $(LOAD_JSON).
loadtest:
	$(GO) run ./cmd/loadgen -selfhost 2 -jobs 4 -writers 2 -readers 8 -duration 5s -out $(LOAD_JSON)
	@cat $(LOAD_JSON)

# The CI form: a short run that asserts the replica-set invariants —
# zero duplicate trainings across the set and at least one row window
# served by a replica the job was never submitted to.
loadtest-smoke:
	$(GO) run ./cmd/loadgen -selfhost 2 -jobs 3 -writers 1 -readers 4 -duration 2s -smoke -out $(LOAD_JSON)

# Tier-1 verification in one command — the same gate
# .github/workflows/ci.yml runs on every push/PR.
verify: build fmt-check md-check vet test bench-check race serve-smoke
