#!/usr/bin/env bash
# The repository's gate: static checks, the test suite once under the race
# detector, the gates that need a build of their own, then every run of
# scripts/runs.txt once — the smoke lines here, the cover lines in
# scripts/runcover.sh with the coverage floors.
set -euxo pipefail

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...

# Every pin again (each pinned test's name says Pinned), twice in one
# process: state a run leaves behind must not move the next run's stream.
go test -count 2 -run Pinned ./...

# The allocation gates the race detector's instrumentation moves — the
# exact counts of a fetch, an open-loop arrival, a cluster arrival (the
# benchmark bounds allocs_per_op at 2 %, less than an object a request) and
# a steady-state checkpoint sweep, the bounds of a warm boot and a speedtest
# pass — and the tracing-overhead ratio (paired, <= 1.9) skip under it, so
# they run plain.
go test -run 'TestFetchAllocationCounts|TestOpenLoopAllocationCounts|TestClusterAllocationCounts|TestCheckpointSweepAllocatesNothing|TestTable2BootAllocations|TestSpeedtestPassAllocations|TestTracingOverheadRatio' . ./internal/siege/ ./internal/cluster/ ./internal/experiments/ ./internal/cubicle/

# benchmark/ is a Go module of its own that `./...` never reaches: it
# keeps traced copies of siege's request loop that must cost the same
# virtual cycles, against siege's and cluster's exported surface. Its test
# runs every workload and probe at 1/50 scale.
go vet -C benchmark ./...
go test -C benchmark ./...

# The design rules the compiler does not check, every defer of the
# trampoline open-coded and the reachability gate (DESIGN.md §6, §10, §12,
# §15, §16); then every benchmark of the module once.
./scripts/lint.sh
go test -run '^$' -bench . -benchtime 1x ./... >/dev/null

set +x
. scripts/runlib.sh
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
runall smoke "$bin"
./scripts/runcover.sh

# Baseline for the next simplicity PR.
echo "check.sh: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l) non-test Go lines outside benchmark/, $(find internal/siege internal/cluster -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) of them in internal/siege + internal/cluster, $(find cmd -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) under cmd/, $(find scripts -type f | xargs cat | wc -l) lines in scripts/"
echo "check.sh: all green"
