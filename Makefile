GO ?= go
# Benchmark → JSON recording for the perf trajectory; bump per PR.
BENCH_JSON ?= BENCH_pr34.json
# The previous PR's recording, the local regression baseline for
# bench-diff (CI benchmarks the base commit on its own runner instead).
BENCH_BASE ?= BENCH_pr33.json
# The sharded-stage benchmarks: the DP noise/update stage, the one-shot
# graph passes, the whole-train scaling curves (TrainWorkers matches the
# lazy-Katz job too, with its weight-fill share as weights-ns/op), the
# sharded evaluation metrics, the sharded edge-weight fill, and the mathx
# vector kernels — the four-lane reductions and
# AXPY. StreamNormalAt times the counter stream's normal sampler, one
# noise row per op, and StreamNormalsAt the row fill; NormalSlow times
# one draw that left its layer's core (the wedge squeeze, its log
# fallback and the tail); NoisyStep times one
# r = 128 private step on the Go loop (go) and on the AVX-512 kernel
# (avx512, skipped on a host without it). LossGradients times one
# skip-gram example (K = 5, r = 128) and RowKernels its three row
# operations, each on the Go loops (go) and the AVX-512 kernels
# (avx512), plus the clip norm of an example with a tiny coefficient
# (SumScaledNorm2SqSubnormal). TrainDatasetJob is
# the end-to-end train-dataset job without the HTTP stack, reporting its
# gradients/reduce/update split per op, and TrainSpillJob the same for
# the train-spill job, with its spill traffic. TrainWorkersSpill also reports
# the bytes its spill runs read and wrote (spill-read-B/op,
# spill-write-B/op). WriteIndexed times the v3 artifact writer on a
# train-spill-sized pair (its allocs/op stay constant per call), and
# DecodeRows the row-window and whole-stream readers.
BENCH_PAT ?= StreamNormalAt|StreamNormalsAt|NormalSlow|NoisyStep|ApplyUpdate|GenerateSubgraphs|TrainWorkers|TrainDatasetJob|TrainSpillJob|StrucEquWorkers|LinkAUCWorkers|EdgeWeightsWorkers|BenchmarkDot|BenchmarkNorm2Sq|BenchmarkAXPY|BenchmarkLossGradients|BenchmarkRowKernels|WriteIndexed|DecodeRows
# Per-target fuzz budget for `make fuzz` (Go's -fuzztime syntax).
FUZZTIME ?= 10s

.PHONY: build test vet race fmt-check md-check bench-check bench bench-json bench-diff fuzz serve-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail on any file gofmt would rewrite (the CI hygiene gate).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Markdown hygiene: link-check README/DESIGN/ROADMAP and the other root
# markdown files and fail on dangling heading anchors — DESIGN.md is 15 cross-referenced
# sections now, so a renamed heading must break CI, not a reader.
md-check:
	$(GO) run ./scripts/mdcheck .

# Vet and test the end-to-end benchmark module (bench/, its own go.mod).
# It imports core, service, experiments and spec internals, and the root
# `go test ./...` does not descend into it — so an internal API change
# that breaks the benchmark fails here, not at benchmark time.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Race-detect the concurrent paths: the parallel training engine and the
# service's job queue and sweep orchestrator live under internal/, and the
# root package's Examples drive a Service and a sweep through the public
# API. cmd/ is left out: cmd/experiments alone takes minutes under -race.
race:
	$(GO) test -race . ./internal/...

# Root training-engine benchmarks; BenchmarkTrainWorkers tracks the
# parallel engine's scaling curve.
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Record the sharded-stage benchmarks as JSON (run on a multi-core host to
# see the worker-count sub-benchmarks separate; single-CPU containers show
# flat curves). Each benchmark runs 3 times, so that bench-diff can
# compare medians and one noisy run does not flag. Emits $(BENCH_JSON) in
# the repo root.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -count 3 ./... \
		| tee /dev/stderr | sh scripts/bench_json.sh > $(BENCH_JSON)

# Compare $(BENCH_JSON) against the previous PR's recording; fails on any
# benchmark whose median ns/op over its runs regressed by more than 10%.
# A missing baseline (fresh checkout, expired CI artifact) skips the check
# rather than blocking — the comparison is a tripwire for the same-host
# trajectory, not a cross-host truth.
bench-diff:
	sh scripts/bench_json.sh diff $(BENCH_BASE) $(BENCH_JSON)

# Run every Fuzz* target in the root module — discovered per package with
# `go test -list`, so a new target joins without editing this file. Go
# runs one fuzz target per invocation, so iterate; $(FUZZTIME) bounds each.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Serving smoke test: start the HTTP job server on a random port, submit
# a tiny inline job over real HTTP, poll it to done, and fetch the result.
serve-smoke:
	$(GO) run ./cmd/sepriv serve -selftest

# Tier-1 verification in one command — the same gate
# .github/workflows/ci.yml runs on every push/PR.
verify: build fmt-check md-check vet test bench-check race serve-smoke
