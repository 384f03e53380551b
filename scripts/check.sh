#!/usr/bin/env sh
# CI gate: static checks, full test suite (with the race detector), and a
# smoke run of the tracing CLI that validates its own output invariants
# (-check: chrome JSON parses, the stream is ordered, the cycle profile
# covers the virtual clock).
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...
go test -race ./internal/faultinject/...

# Checked-access gates: the checked-access fuzz seeds (run as unit tests;
# the target keeps its pre-removal name FuzzSpanTLBDifferential), a race
# pass over the cubicle runtime, and a bench smoke that compiles and runs
# every hot-path bench body once.
go test -race -run FuzzSpanTLBDifferential ./internal/cubicle/
go test -race ./internal/cubicle/...
./scripts/bench.sh -quick >/dev/null

# Page-path gates: the B+tree's in-place page edits against the old
# decode/encode algorithm kept as a byte oracle (FuzzPageOps' seed corpus,
# run as unit tests), and the pinned speedtest image: page count, CRC of
# every page, all pager counters and the virtual clock of one pass. With
# them the row-path gates: the LRU ring against the min-tick scan it
# replaced, one WorkN against k calls of Work, every statement shape that
# keeps a row beyond its callback under the row poison, and the exact
# allocation budgets of a row visited, emitted, updated, deleted, checked,
# inserted and parsed. And the pin rule of frame reuse: with evicted frames
# poisoned under the guard, a holder that should have pinned one reads 0xDD
# (FuzzPageOps, the row view under eviction), and the spare list stays at
# its bound. And the statement's lifetime (DESIGN.md §16): a text view kept
# past its row reads the poison (the positive control, the stored row under
# eviction), ASTs are those of the parser before it reused its nodes, LIKE
# against a regexp reference within its step bound, function arity. And the
# one error path and the one planner: every malformed statement's message
# through Parse and Exec (and the reused parser after it), FuzzParse's
# seeds, the planner against the old kind table, the INSERT … SELECT
# column mapping, HAVING in the correlation test, aggregates under any node.
go test -race -run 'FuzzPageOps|TestSpeedtestImagePinned|TestFrameReuse|TestLRUVictimMatchesScan|TestWorkNEqualsRepeatedWork|TestReusedRowsDoNotLeak|TestRowPathAllocations|TestPoisonRowsCatchesAKeptRow|TestPoisonRowsCatchesAKeptResult|TestUpdateKeeps|TestFailedUpdate|TestAutomaticRowidDoesNotWrap|TestStoredRowOutlivesEviction|TestASTGolden|FuzzLike|TestLikeStepsBounded|TestFunctionArity|TestParseStatements|FuzzParse|TestPlanAccessMatchesKindTable|TestInsertSelect|TestSubqueryCorrelatedThroughHaving|TestAggregateUnderExpressions|TestArenaRunsNeverSpanChunks|TestResultColumnNames|TestJournalWriteFailure|TestRollbackAfterSpillRestoresTheFile|TestFailedRollbackLeavesTheJournal|TestFailedFsyncFailsTheCommit|TestPageOpsRollbackAfterSpill' \
    ./internal/sqldb/ ./internal/experiments/ ./internal/cycles/ ./internal/cubicle/

# Crossing gate: every defer in the trampoline must stay open-coded (the
# compiler falls back to deferprocStack past 8 defers or 15 defer×return
# sites a function, which put ~8 % on every crossing).
./scripts/defercheck.sh

# Source lints (scripts/lint.sh): no lock, one go statement and no
# sync/atomic in the runtime (DESIGN.md §10), one page-table walk (§12), one
# clock (§10), one recorder (§6), one unsafe view maker a package (§16), and
# the reachability gate: every exported name under internal/ is reached
# from non-test code or allowed with its reason (reach_test.go). Then,
# under the race detector, the stream digests pinned before note existed
# and note against the counter table for every event kind.
./scripts/lint.sh
go test -race -run 'TestStreamDigestsPinned|TestNoteIsTheCounterTable' . ./internal/cubicle/

go run ./cmd/cubicle-trace -format chrome -requests 5 -check >/dev/null
go run ./cmd/cubicle-trace -format prom -requests 5 -check >/dev/null
go run ./cmd/cubicle-trace -format json -requests 5 -check >/dev/null

# Chaos smoke: deterministic fault injection into RAMFS under supervision.
# The run must contain every injected fault, recover to 200 after disarm,
# and keep the trace invariants (-check) over the chaotic schedule.
go run ./cmd/cubicle-trace -format json -requests 40 -chaos-seed 7 -check >/dev/null

# Overload smoke: open-loop sweep below and past the saturation knee.
# -assert-degrade exits non-zero unless the governed server sheds
# explicitly, keeps connections and memory bounded, and drops nothing.
go run ./cmd/httpbench -openloop -rates 1000,8000 -requests 120 -assert-degrade >/dev/null

# SMP gates: interleaved threads on one monitor, the retag shootdown
# surcharge and the shard siege under the race detector — host
# parallelism is shared-nothing shards with one monitor and one goroutine
# each, and TestParallelOpenLoop* under -race is the guard that they share
# nothing (TestParallelPeersShareNoBuffers the same for each shard's peer
# and its free list of receive buffers) — and the 1-core byte-identity
# golden: cores=1 must reproduce the pre-SMP Figure 7 exactly.
go test -race -run 'SMP|Shootdown|Parallel' ./internal/cubicle/ ./internal/siege/ ./internal/lwip/
go run ./cmd/cubicle-bench -fig 7 | diff - cmd/cubicle-bench/testdata/fig7_seed.golden

# Shard siege: the sharded open-loop driver must complete at 4 cores, and
# wherever the host has two CPUs two shards must serve more requests per
# wall second than one. 1.1x sits below the least of twenty runs on a
# 2-vCPU host (1.16x; median 1.4x; EXPERIMENTS.md, "Multi-core sweep").
if [ "$(nproc)" -ge 2 ]; then
    go run ./cmd/httpbench -cores 2 -requests 200 -assert-scale 1.1
else
    echo "check.sh: 1 CPU; shard siege smoke without the scaling assertion"
    go run ./cmd/httpbench -cores 2 -rates 2000 -requests 100 >/dev/null
fi
go run ./cmd/httpbench -cores 4 -rates 2000 -requests 100 >/dev/null

# Recovery gates: the snapshot codec (round-trip, determinism, corruption
# rejection, fuzz seeds run as unit tests), the checkpoint/warm-restart
# suite (warm restore, snapshot veto, cold fallback, quiescence skip,
# budget exhaustion, warm-vs-cold siege) with the index-against-oracle tests
# (owned-page lists against a page-table walk after every step of a random
# program and every chaos request, the checkpoint image against the one
# the walk builds, trampoline and handle *Cubicle pointers across cold and
# warm restarts) under the race detector, and a
# record/replay smoke at 1 and 4 cores: -replay -until re-executes the
# chaos run and requires the event streams to be bit-identical up to the
# halt cycle. (-cores 4 means the retag surcharge.)
go test -race ./internal/snapshot/
go test -race -run FuzzSnapshotDecode ./internal/snapshot/
go test -race -run 'Checkpoint|Snapshot|Restore|WarmRestart|WarmVsCold|RestartBudget|ReplayDeterminism|OwnedPages|CubiclePointers|SiegeUnderChaos' ./internal/cubicle/ ./internal/siege/
go run ./cmd/cubicle-trace -replay -requests 10 -chaos-seed 7 -checkpoint 500000 -until 3000000 >/dev/null
go run ./cmd/cubicle-trace -replay -cores 4 -requests 10 -chaos-seed 7 -checkpoint 500000 -until 3000000 >/dev/null

# Cluster gates: the virtual cluster behind the health-aware balancer —
# keep-alive/pipelining, wire-drop determinism, the failover suite (drain,
# warm re-admission, retry budget, five-run DeepEqual under chaos) under
# the race detector, and the end-to-end acceptance scenario: killing one
# of four backends mid-flood keeps goodput >= 60% of steady state, the
# victim is re-admitted after a warm restart, and two seeded runs are
# bit-identical. Then the one fleet view, in text and JSON.
go test -race ./internal/cluster/
go test -race -run 'KeepAlive|HTTP10|WireDrop' ./internal/siege/ ./internal/netdev/ ./internal/faultinject/
# httpd steps its connections in fd order off a list it keeps sorted; the
# list against its invariants under churn, and the skip of a connection
# closed earlier in the same step.
go test -race -run 'StepOrder|StepSkips' ./internal/httpd/
go run ./cmd/httpbench -cluster 4 -assert-degrade >/dev/null
go run ./cmd/cubicle-inspect -cluster 2 >/dev/null
go run ./cmd/cubicle-inspect -cluster 2 -json >/dev/null

# Observability gates: the trace invariants at -cores 4 (the retag
# surcharge), then the /metrics exposition and dashboard smoke, the
# single-system dump as valid JSON (the cluster gates above only run
# -cluster 2), and the tracing-overhead ratio (paired benchmark,
# drift-immune; <= 1.9).
go run ./cmd/cubicle-trace -check -format json -cores 4 -requests 10 >/dev/null
go run ./cmd/cubicle-top -once -requests 120 >/dev/null
go run ./cmd/cubicle-inspect -json | python3 -m json.tool >/dev/null
./scripts/bench.sh -assert

# Allocation budget: the benchmark bounds allocs_per_op at 2 %, less than
# one object a request, on every HTTP workload. The exact per-request
# counts of a Fetch, an open-loop arrival and a cluster arrival are tier-1
# tests; they skip under the race detector above, so run them plain.
go test -run 'TestFetchAllocationCounts|TestOpenLoopAllocationCounts|TestClusterAllocationCounts' ./internal/siege/ ./internal/cluster/

# Benchmark module gates: benchmark/ is a Go module of its own, so the
# `go test ./...` above never reaches it — yet it keeps traced copies of
# siege's request loop that call Peer, PeerConn and Target directly and
# must cost the same virtual cycles, and it compiles against siege's and
# cluster's exported surface. Vet it and run every workload and probe at
# 1/50 scale (~3 s).
go vet -C benchmark ./...
go test -C benchmark ./...

# Baseline for the next simplicity PR.
echo "check.sh: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l) non-test Go lines outside benchmark/, $(find internal/siege internal/cluster -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) of them in internal/siege + internal/cluster, $(find cmd -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) under cmd/"
echo "check.sh: all green"
