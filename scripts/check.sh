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

# The exact allocation counts of a fetch, an open-loop arrival, a cluster
# arrival (the benchmark bounds allocs_per_op at 2 %, less than an object a
# request) and a steady-state checkpoint sweep skip under the race
# detector, so they run plain.
go test -run 'TestFetchAllocationCounts|TestOpenLoopAllocationCounts|TestClusterAllocationCounts|TestCheckpointSweepAllocatesNothing' ./internal/siege/ ./internal/cluster/

# benchmark/ is a Go module of its own that `./...` never reaches: it
# keeps traced copies of siege's request loop that must cost the same
# virtual cycles, against siege's and cluster's exported surface. Its test
# runs every workload and probe at 1/50 scale.
go vet -C benchmark ./...
go test -C benchmark ./...

# The design rules the compiler does not check and the reachability gate
# (DESIGN.md §6, §10, §12, §16); every defer of the trampoline open-coded
# (§15); every hot-path bench body once; then the tracing-overhead ratio
# (paired, ≤ 1.9) and the exact allocation gates of crossings, rows and a
# speedtest pass.
./scripts/lint.sh
./scripts/defercheck.sh
./scripts/bench.sh -quick >/dev/null
./scripts/bench.sh -assert

set +x
. scripts/runlib.sh
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
runall smoke "$bin"
./scripts/runcover.sh

# Baseline for the next simplicity PR.
echo "check.sh: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l) non-test Go lines outside benchmark/, $(find internal/siege internal/cluster -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) of them in internal/siege + internal/cluster, $(find cmd -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) under cmd/"
echo "check.sh: all green"
