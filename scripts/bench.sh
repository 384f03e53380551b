#!/usr/bin/env sh
# Wall-clock benchmark baseline for the simulator's hot paths, emitted as
# BENCH_simulator.json so the trajectory is diffable across PRs.
#
# Covered series:
#   Fastpath{LoadByte,StoreByte,Memcpy4K,Memset4K}  per-byte
#       checked access through the per-page walk (internal/cubicle)
#   ClockCharge, ClockChargeAfterCopy  one advance of the virtual clock
#       (internal/cycles): back to back, and right behind a 1 400-byte copy
#       into a 2 MiB working set, the bulk path's pattern. A plain store
#       since PR 22; readings, not gates
#   Fig7Nginx/65536B       the paper's figure workload, and the end-to-end
#       wall-clock series (wall + virtual time)
#   CallTracing{Disabled,Enabled}  crossing cost with the tracer off/on
#   CallTracingPaired      the same pair interleaved batch-by-batch; its
#       "ratio" metric is the drift-immune tracing-overhead measurement
#   CrossCubicleCall/*, CrossingArgsRets  one crossing per isolation mode,
#       and the crossing real callers make (3 words in, 2 out); their
#       allocs/op is the exact gate of the crossing ABI. The bare modes run
#       the trusted fast path (crossFast); CrossCubicleCall/supervised is
#       the same body with a supervisor and a checkpoint cadence attached
#       (crossFull) — the crossing prod_openloop and cluster_failover make
#   IdleStep/conns-{1,16,64}  one nginx_step with nothing to do on a
#       production-configured target holding N idle keep-alive connections:
#       the operation cluster_failover performs 127 times an arrival
#   CheckpointSweep        one checkpoint sweep of a provisioned idle target
#       (the step that carries it included); checkpoints/op and ckptbytes/op
#       are deterministic. Readings, not gates
#   SMPSiege/cores-{1,2,4} sharded open-loop siege per core count: wallrps
#       shows wall-clock scaling, ok is deterministic
#   ClusterGoodput/backends-{1,2,4}  the virtual cluster behind the
#       health-aware balancer: goodputrps/ok are deterministic and must
#       scale near-linearly with fleet size
#   sqldb: BtreePointLookup, BtreeInsertDelete (internal/sqldb),
#       SpeedtestPass (internal/experiments: boot, fill and the 31 queries
#       of the repo benchmark's sqlite_speedtest) and SpeedtestQueries (the
#       31 queries alone, boot and fill outside the timer: what the
#       benchmark's alloc_bytes_per_op measures), with -benchmem — the
#       B+tree page path edits pages in place and its allocs/op say so;
#       FilteredScan (a 1000-row scan whose WHERE rejects every row) and
#       ParseInsert (speedtest1's most common statement through a parser
#       that lives with its database): the row and parse paths reuse their
#       buffers, and their allocs/op are gated
#
# The JSON also records tracing_overhead_ratio (CallTracingPaired's ratio
# metric): the cost of leaving the observability layer on. -assert gates
# it.
#
# Virtual-time metrics (vcycles/op, vms/op) are identical whatever the
# wall-clock numbers do — that invariant is enforced by the figure golden
# tests, not by this script.
#
# Usage: scripts/bench.sh [-quick] [-assert]
#   -quick   one iteration per bench (CI smoke: compiles and runs each
#            bench body once; the JSON is written to /dev/null)
#   -assert  run only the gate benches and exit non-zero when a gate
#            fails:
#              - tracing-overhead ratio > MAX_TRACING_RATIO (default 1.9)
#                — the always-on observability gate. 1.6 until PR 22 took
#                ≈ 20 ns of fenced clock stores out of *both* sides of the
#                quotient: the tax in ns did not move (≈ 75 on the host of
#                that day, either side), the ratio went 1.59 → 1.76 paired,
#                and the gate moved with its base (EXPERIMENTS.md, "Tracing
#                overhead")
#              - allocs/op != 0 on CrossCubicleCall/* (the supervised
#                crossing included) or CrossingArgsRets — a crossing
#                allocates nothing; exact, so immune to host noise
#              - allocs/op > 11 on FilteredScan or > 0 on ParseInsert — a
#                row visited allocates nothing (one object a row would read
#                1011), a statement parsed reuses the nodes, statement and
#                lists of the one before; exact as well
#              - B/op > 12 577 000 on SpeedtestPass (boot, fill, 31
#                queries; 11.43 MB measured, 10 % below the bound) or
#                > 3 039 000 on SpeedtestQueries (2.76 MB measured) — a page
#                miss takes an evicted frame, a row's text is read in place
#                and copied only where it is kept, a statement reuses the
#                parser's nodes, the DB's buffers, its binds and the arenas
#                of its Result, a spilled pre-image's buffer goes back to
#                the free list, and Exec runs speedtest's text in place
#            The shard siege's wall-clock scaling gate is
#            `httpbench -cores 2 -assert-scale` in scripts/check.sh.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
HTTPTIME="500x"
OUT="BENCH_simulator.json"
MAX_TRACING_RATIO="${MAX_TRACING_RATIO:-1.9}"
MODE=full
for arg in "$@"; do
    case "$arg" in
    -quick)  MODE=quick ;;
    -assert) MODE=assert ;;
    *) echo "bench.sh: unknown flag $arg" >&2; exit 2 ;;
    esac
done
if [ "$MODE" = quick ]; then
    BENCHTIME=1x
    HTTPTIME=1x
    OUT=/dev/null
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

if [ "$MODE" != assert ]; then
    go test -run '^$' -bench 'Fastpath' -benchtime "$BENCHTIME" ./internal/cubicle/ | tee -a "$TMP"
    go test -run '^$' -bench 'ClockCharge' -benchtime "$BENCHTIME" ./internal/cycles/ | tee -a "$TMP"
    go test -run '^$' -bench 'Fig7Nginx/65536B' -benchtime "$HTTPTIME" . | tee -a "$TMP"
    go test -run '^$' -bench 'SMPSiege' -benchtime "$HTTPTIME" . | tee -a "$TMP"
    go test -run '^$' -bench 'ClusterGoodput' -benchtime "$HTTPTIME" . | tee -a "$TMP"
    go test -run '^$' -bench 'Btree' -benchtime "$BENCHTIME" -benchmem ./internal/sqldb/ | tee -a "$TMP"
    SQLTIME=5x
    [ "$MODE" = quick ] && SQLTIME=1x
    go test -run '^$' -bench 'SpeedtestPass|SpeedtestQueries' -benchtime "$SQLTIME" -benchmem ./internal/experiments/ | tee -a "$TMP"
    # Warm-restart MTTR: checkpointed vs cold chaos-siege recovery. The
    # interesting metrics are deterministic virtual-clock series
    # (warm/colddegradedcycles, warm/coldfailed), so one iteration is
    # enough; TestWarmVsColdSiege asserts warm strictly beats cold.
    go test -run '^$' -bench 'WarmRestartMTTR' -benchtime 1x . | tee -a "$TMP"
fi
# The ratio gate reads BenchmarkCallTracingPaired's "ratio" metric:
# traced and untraced batches interleave at ~100 µs granularity inside
# one benchmark, so host-load drift hits both sides equally and cancels
# in the quotient — the separate Disabled/Enabled benches above report
# absolute ns/op but their quotient is hostage to noise between the two
# measurement blocks. -assert averages three repetitions.
COUNT=1
[ "$MODE" = assert ] && COUNT=3
go test -run '^$' -bench 'CallTracing' -benchtime "$BENCHTIME" -count "$COUNT" ./internal/cubicle/ | tee -a "$TMP"
go test -run '^$' -bench 'CrossCubicleCall' -benchtime "$BENCHTIME" -benchmem . | tee -a "$TMP"
if [ "$MODE" != assert ]; then
    go test -run '^$' -bench 'IdleStep|CheckpointSweep' -benchtime "$BENCHTIME" -benchmem . | tee -a "$TMP"
fi
go test -run '^$' -bench 'CrossingArgsRets' -benchtime "$BENCHTIME" ./internal/cubicle/ | tee -a "$TMP"
go test -run '^$' -bench 'FilteredScan|ParseInsert' -benchtime "$BENCHTIME" -benchmem ./internal/sqldb/ | tee -a "$TMP"
if [ "$MODE" = assert ]; then
    go test -run '^$' -bench 'SpeedtestPass|SpeedtestQueries' -benchtime 1x -benchmem ./internal/experiments/ | tee -a "$TMP"
fi

RATIO="$(awk '
/^BenchmarkCallTracingPaired/ {
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "ratio") { r += $i; n++ }
    }
}
END {
    if (n == 0) { print "0"; exit }
    printf "%.3f", r / n
}' "$TMP")"

if [ "$MODE" = assert ]; then
    echo "bench.sh: tracing overhead ratio $RATIO (max $MAX_TRACING_RATIO)"
    awk -v r="$RATIO" -v max="$MAX_TRACING_RATIO" 'BEGIN {
        if (r <= 0) { print "bench.sh: assert: no CallTracing measurements"; exit 1 }
        if (r > max) {
            printf "bench.sh: assert: tracing overhead %.3fx exceeds %.2fx\n", r, max
            exit 1
        }
        printf "bench.sh: assert ok: tracing %.3fx <= %.2fx\n", r, max
    }' || exit 1

    # Crossing allocation gate: argument words ride the thread's word
    # stack and result words its scratch, so a crossing allocates nothing
    # in any isolation mode. A count, not a time: gated exactly.
    awk '
    /^Benchmark(CrossCubicleCall|CrossingArgsRets)/ {
        for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "allocs/op") {
            n++
            if ($i != 0) { printf "bench.sh: assert: %s allocates %s objects/op, want 0\n", $1, $i; bad = 1 }
        }
    }
    END {
        if (n < 6) { print "bench.sh: assert: crossing allocation measurements missing"; exit 1 }
        if (bad) exit 1
        printf "bench.sh: assert ok: %d crossing benches at 0 allocs/op\n", n
    }' "$TMP" || exit 1

    # Row-path allocation gate: a scan decodes each row into its bind's
    # reused slice and Exec's parser reuses its token buffer and node
    # chunks, so neither count grows with the rows visited or the statements
    # parsed before. Counts, gated exactly.
    awk '
    /^Benchmark(FilteredScan|ParseInsert)/ {
        max = ($1 ~ /FilteredScan/) ? 11 : 0
        for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "allocs/op") {
            n++
            if ($i > max) { printf "bench.sh: assert: %s allocates %s objects/op, want at most %s\n", $1, $i, max; bad = 1 }
        }
    }
    END {
        if (n < 2) { print "bench.sh: assert: row-path allocation measurements missing"; exit 1 }
        if (bad) exit 1
        print "bench.sh: assert ok: FilteredScan <= 11 and ParseInsert <= 0 allocs/op"
    }' "$TMP" || exit 1

    # Pass garbage gate: evicted frames are reused under the pin rule, rows
    # are read in place and what a statement allocates for itself, its
    # Result included, lives in arenas the DB reuses, pre-images live in
    # the journal once it holds them (DESIGN.md §16). A byte count of a
    # fixed workload: it moves by kilobytes between runs, not megabytes.
    awk '
    /^Benchmark(SpeedtestPass|SpeedtestQueries)/ {
        max = ($1 ~ /SpeedtestPass/) ? 12577000 : 3039000
        for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "B/op") {
            n++
            if ($i > max) { printf "bench.sh: assert: %s allocates %s B/op, want at most %s\n", $1, $i, max; bad = 1 }
        }
    }
    END {
        if (n < 2) { print "bench.sh: assert: SpeedtestPass or SpeedtestQueries measurement missing"; exit 1 }
        if (bad) exit 1
        print "bench.sh: assert ok: SpeedtestPass <= 12577000 and SpeedtestQueries <= 3039000 B/op"
    }' "$TMP" || exit 1
    exit 0
fi

awk -v benchtime="$BENCHTIME" -v ratio="$RATIO" -v np="$(nproc)" '
BEGIN {
    printf "{\n \"generated_by\": \"scripts/bench.sh\",\n"
    printf " \"benchtime\": \"%s\",\n \"benches\": [\n", benchtime
    sep = ""
}
/^Benchmark/ {
    name = $1
    # Strip the -GOMAXPROCS suffix. Go only appends it when GOMAXPROCS > 1,
    # and a blind -[0-9]+$ strip would eat real name parts like
    # SMPSiege/cores-1 on a single-CPU host.
    if (np > 1) sub("-" np "$", "", name)
    printf "%s  {\"name\": \"%s\", \"iterations\": %s", sep, name, $2
    for (i = 3; i + 1 <= NF; i += 2) {
        printf ", \"%s\": %s", $(i + 1), $i
    }
    printf "}"
    sep = ",\n"
}
END {
    printf "\n ],\n"
    printf " \"tracing_overhead_ratio\": %s\n}\n", ratio
}
' "$TMP" > "$OUT"

[ "$OUT" = /dev/null ] || echo "bench.sh: wrote $OUT (tracing overhead ${RATIO}x)"
