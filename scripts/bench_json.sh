#!/usr/bin/env sh
# bench_json.sh — record and compare `go test -bench` results as JSON.
#
# Record mode (default): convert benchmark output (stdin) into a JSON array
# (stdout), one record per benchmark line, carrying the package and host
# context lines along. Used by `make bench-json` to record the perf
# trajectory (BENCH_pr2.json and successors) on multi-core hosts, where the
# worker-count sub-benchmarks actually separate; see ROADMAP.md.
#
#   go test -run '^$' -bench . -benchmem ./... | scripts/bench_json.sh
#
# Diff mode: compare two recordings by (pkg, name) and fail on regression.
# A benchmark present in both files whose ns_per_op grew by more than
# MAX_PCT (default 10) is a regression; added/removed benchmarks are only
# noted. Names are matched without go test's -GOMAXPROCS suffix, so
# recordings from hosts with different CPU counts line up. A missing OLD
# file is a warning, not a failure — fresh checkouts
# and expired CI artifacts must not block the build — and host lines are
# ignored (cross-host numbers are trajectory, not truth).
#
#   scripts/bench_json.sh diff OLD.json NEW.json [MAX_PCT]
set -eu

if [ "${1:-}" = "diff" ]; then
    usage="usage: bench_json.sh diff OLD.json NEW.json [MAX_PCT]"
    old=${2:?$usage}
    new=${3:?$usage}
    max_pct=${4:-10}
    if [ ! -f "$old" ]; then
        echo "bench_json.sh: no baseline $old; skipping the regression check" >&2
        exit 0
    fi
    if [ ! -f "$new" ]; then
        echo "bench_json.sh: $new not found ($usage)" >&2
        exit 2
    fi
    # The recordings are this script's own output: one record per line, so
    # a line-oriented awk parse is exact (no JSON library dependency).
    awk -v max_pct="$max_pct" -v oldname="$old" -v newname="$new" '
    # parse extracts (pkg, name, ns_per_op) from one record line into
    # K and NS; returns 0 for meta/host records and null timings.
    function parse(line) {
        if (line !~ /"ns_per_op":/) return 0
        if (!match(line, /"pkg":"[^"]*"/)) return 0
        pkg = substr(line, RSTART + 7, RLENGTH - 8)
        if (pkg == "meta") return 0
        if (!match(line, /"name":"[^"]*"/)) return 0
        K = pkg "/" substr(line, RSTART + 8, RLENGTH - 9)
        # go test appends -GOMAXPROCS to names on multi-CPU hosts; the
        # meta record carries the CPU count, so compare names without it.
        sub(/-[0-9]+$/, "", K)
        if (!match(line, /"ns_per_op":[0-9.eE+-]+/)) return 0
        NS = substr(line, RSTART + 12, RLENGTH - 12) + 0
        return NS > 0
    }
    FNR == NR { if (parse($0)) base[K] = NS; next }
    {
        if (!parse($0)) next
        seen[K] = 1
        if (!(K in base)) { printf "  new   %-60s %12.1f ns/op\n", K, NS; next }
        delta = (NS - base[K]) / base[K] * 100
        marker = "  ok   "
        if (delta > max_pct) { marker = "  REGR "; regressions++ }
        printf "%s%-60s %12.1f -> %12.1f ns/op  (%+.1f%%)\n", marker, K, base[K], NS, delta
    }
    END {
        for (K in base) if (!(K in seen)) printf "  gone  %s\n", K
        if (regressions) {
            printf "bench_json.sh: %d benchmark(s) regressed more than %s%% between %s and %s\n", \
                regressions, max_pct, oldname, newname
            exit 1
        }
    }
    ' "$old" "$new"
    exit $?
fi

NPROC=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo null)

awk -v nproc="$NPROC" '
function emit_sep() { if (n++) printf ",\n" }
/^pkg: /  { pkg = $2 }
/^cpu: /  { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2
    ns = "null"; bytes = "null"; allocs = "null"; extra = ""
    for (i = 3; i < NF; i++) {
        unit = $(i+1)
        if (unit == "ns/op")          ns = $i
        else if (unit == "B/op")      bytes = $i
        else if (unit == "allocs/op") allocs = $i
        # b.ReportMetric units (e.g. weights-ns/op) are kept under their own name.
        else if (unit ~ /\/op$/)      extra = extra sprintf(",\"%s\":%s", unit, $i)
    }
    emit_sep()
    printf "  {\"pkg\":\"%s\",\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s%s}", pkg, name, iters, ns, bytes, allocs, extra
}
BEGIN { print "[" ; n = 0 }
END   {
    emit_sep()
    printf "  {\"pkg\":\"meta\",\"name\":\"host\",\"cpu\":\"%s\",\"cpus\":%s}", cpu, nproc
    print "\n]"
}
'
