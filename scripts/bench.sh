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
#       allocs/op is the exact gate of the crossing ABI. Every mode runs
#       the one crossing body; CrossCubicleCall/supervised attaches a
#       supervisor and a checkpoint cadence to it — the crossing
#       prod_openloop and cluster_failover make
#   IdleStep/conns-{1,16,64}  one nginx_step with nothing to do on a
#       production-configured target holding N idle keep-alive connections:
#       the first step of a cluster quantum on a backend with nothing to
#       do, about 3 of the 7 steps cluster_failover takes an arrival
#   CheckpointSweep        one steady-state checkpoint sweep of a
#       provisioned idle target (the step that carries it included);
#       checkpoints/op and ckptbytes/op are deterministic, and B/op and
#       allocs/op are gated
#   SMPSiege/cores-{1,2,4} sharded open-loop siege per core count: wallrps
#       shows wall-clock scaling, ok is deterministic
#   ClusterGoodput/backends-{1,2,4}  the virtual cluster behind the
#       health-aware balancer: goodputrps/ok are deterministic and must
#       scale near-linearly with fleet size; crossings/arrival is
#       deterministic too (≈ 52: the driver steps an idle backend once a
#       quantum)
#   Table2Boot             one boot of the Figure 5 deployment (builder,
#       loader, wiring), with -benchmem: default images, their frames and
#       the guard pages are built once per process and shared, so a boot
#       allocates only what differs between boots; its B/op and allocs/op
#       are gated
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
#   -quick   every benchmark of the module once (go test -bench .
#            -benchtime 1x ./...: CI smoke, a bench no list above names
#            included); no JSON is written
#   -assert  run only the gate benches and exit non-zero when a gate
#            fails:
#              - tracing-overhead ratio > MAX_TRACING_RATIO (default 1.9)
#                — the always-on observability gate (EXPERIMENTS.md,
#                "Tracing overhead", has how it moved)
#              - allocs/op != 0 on CrossCubicleCall/* (the supervised
#                crossing included) or CrossingArgsRets — a crossing
#                allocates nothing; exact, so immune to host noise
#              - allocs/op > 11 on FilteredScan or > 0 on ParseInsert — a
#                row visited allocates nothing (one object a row would read
#                1011), a statement parsed reuses the nodes, statement and
#                lists of the one before; exact as well
#              - B/op > 0 or allocs/op > 0 on CheckpointSweep (0 and 0
#                measured: a capture builds the monitor's one image, each
#                hook's blob in the buffer of its last and the encoding in
#                the record's spare buffer; 280 064 and 18 while every
#                capture built them afresh)
#              - B/op > 66 255 or allocs/op > 565 on Table2Boot
#                (60 232 and 514 measured, +10 %; 580 120 and 1 602
#                when every boot synthesised its images and wrote its
#                code, thunk and guard pages afresh)
#              - B/op > 8 774 000 on SpeedtestPass (boot, fill, 31
#                queries; 7.98 MB measured, +10 %: a mapped page costs no
#                frame until it is written), B/op > 2 217 000 or
#                allocs/op > 771 on SpeedtestQueries (2.016 MB and 701
#                measured, +10 %; 8 031 objects while aggregate state,
#                index bounds, splits and the journal's inode were made
#                afresh) — a page miss takes an evicted frame, a row's text
#                is read in place and copied only where it is kept, a
#                statement reuses the parser's nodes, the DB's buffers,
#                its binds, the arenas of its Result, its frame's group
#                map and slabs and its join levels' key buffers, a split
#                reuses its tree level's, a spilled pre-image's buffer
#                goes back to the free list, RAMFS recreates the journal
#                from the inode it last unlinked, and Exec runs
#                speedtest's text in place
#            The shard siege's wall-clock scaling gate is a line of
#            scripts/runs.txt.
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
    exec go test -run '^$' -bench . -benchtime 1x ./...
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
    go test -run '^$' -bench 'SpeedtestPass|SpeedtestQueries' -benchtime 5x -benchmem ./internal/experiments/ | tee -a "$TMP"
    # Warm-restart MTTR: checkpointed vs cold chaos-siege recovery. The
    # interesting metrics are deterministic virtual-clock series
    # (warm/colddegradedcycles, warm/coldfailed), so one iteration is
    # enough; TestWarmVsColdSiege asserts warm strictly beats cold.
    go test -run '^$' -bench 'WarmRestartMTTR' -benchtime 1x . | tee -a "$TMP"
fi
go test -run '^$' -bench 'Table2Boot' -benchtime "$BENCHTIME" -benchmem . | tee -a "$TMP"
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
SWEEP='IdleStep|CheckpointSweep'
[ "$MODE" = assert ] && SWEEP=CheckpointSweep
go test -run '^$' -bench "$SWEEP" -benchtime "$BENCHTIME" -benchmem . | tee -a "$TMP"
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

    # The exact gates: counts of fixed work, immune to host noise. A gate
    # line names a group, the measurements it needs and what it prints when
    # they are missing and when every bound holds (%d: how many held); a
    # bound line gives a group's benchmarks, the metric and its bound
    # ("=N": exactly N).
    #   crossing: argument words ride the thread's word stack and result
    #     words its scratch, so a crossing allocates nothing in any mode.
    #   rowpath: a scan decodes each row into its bind's reused slice and
    #     Exec's parser reuses its token buffer and node chunks, so neither
    #     count grows with the rows visited or the statements parsed before.
    #   sweep: a steady-state checkpoint sweep reuses the monitor's image,
    #     the hooks' blob buffers and each record's two encode buffers.
    #   boot: a boot allocates what differs between boots (cubicles,
    #     trampolines, signatures, page-table entries); the images, their
    #     frames and the guard pages are the process's.
    #   pass: evicted frames are reused under the pin rule, rows are read in
    #     place, what a statement allocates for itself lives in arenas the DB
    #     reuses, pre-images live in the journal once it holds them
    #     (DESIGN.md §16); it moves by kilobytes and a few objects between
    #     runs, not megabytes or thousands.
    awk -F';' '
    FNR == NR {
        if ($1 == "gate") { order[++ng] = $2; need[$2] = $3; missing[$2] = $4; green[$2] = $5 }
        else { nb++; grp[nb] = $1; re[nb] = $2; metric[nb] = $3; bound[nb] = $4 }
        next
    }
    /^Benchmark/ {
        nf = split($0, f, /[ \t]+/)
        for (b = 1; b <= nb; b++) {
            if (f[1] !~ re[b]) continue
            exact = bound[b] ~ /^=/
            max = exact ? substr(bound[b], 2) + 0 : bound[b] + 0
            for (i = 3; i + 1 <= nf; i += 2) {
                if (f[i + 1] != metric[b]) continue
                n[grp[b]]++
                if (exact ? f[i] + 0 != max : f[i] + 0 > max) {
                    unit = metric[b] == "allocs/op" ? "objects/op" : metric[b]
                    printf "bench.sh: assert: %s allocates %s %s, want %s%s\n", f[1], f[i], unit, exact ? "" : "at most ", max
                    failed[grp[b]] = 1
                }
            }
        }
    }
    END {
        for (k = 1; k <= ng; k++) {
            g = order[k]
            if (n[g] < need[g]) { printf "bench.sh: assert: %s\n", missing[g]; bad = 1 }
            else if (failed[g]) bad = 1
            else printf "bench.sh: assert ok: " green[g] "\n", n[g]
        }
        exit bad
    }' - "$TMP" <<'EOF' || exit 1
gate;crossing;6;crossing allocation measurements missing;%d crossing benches at 0 allocs/op
crossing;^Benchmark(CrossCubicleCall|CrossingArgsRets);allocs/op;=0
gate;rowpath;2;row-path allocation measurements missing;FilteredScan <= 11 and ParseInsert <= 0 allocs/op
rowpath;^BenchmarkFilteredScan;allocs/op;11
rowpath;^BenchmarkParseInsert;allocs/op;0
gate;sweep;2;CheckpointSweep measurement missing;CheckpointSweep <= 0 B/op and <= 0 allocs/op
sweep;^BenchmarkCheckpointSweep;B/op;0
sweep;^BenchmarkCheckpointSweep;allocs/op;0
gate;boot;2;Table2Boot measurement missing;Table2Boot <= 66255 B/op and <= 565 allocs/op
boot;^BenchmarkTable2Boot;B/op;66255
boot;^BenchmarkTable2Boot;allocs/op;565
gate;pass;3;SpeedtestPass or SpeedtestQueries measurement missing;SpeedtestPass <= 8774000 B/op, SpeedtestQueries <= 2217000 B/op and <= 771 allocs/op
pass;^BenchmarkSpeedtestPass;B/op;8774000
pass;^BenchmarkSpeedtestQueries;B/op;2217000
pass;^BenchmarkSpeedtestQueries;allocs/op;771
EOF
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

echo "bench.sh: wrote $OUT (tracing overhead ${RATIO}x)"
