#!/bin/sh
# Tier-1 verification: build, full test suite, and a race-detector pass
# over the concurrent internals. Run from the repository root.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test ./...
# The benchmark module has its own go.mod; `go test ./...` skips it.
(cd bench && go vet ./... && go test ./...)
go test -race ./internal/...
# Serving smoke: random port, one tiny job over real HTTP, poll to done,
# fetch the result.
go run ./cmd/seprivd -selftest
echo "verify: OK"
