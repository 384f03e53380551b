#!/usr/bin/env sh
# Source lints: the design rules DESIGN.md states that the compiler does not
# check. scripts/check.sh runs it.
# Usage: scripts/lint.sh (from anywhere; exits non-zero on the first rule
# broken, naming it).
set -eu

cd "$(dirname "$0")/.."

fail() {
    echo "lint.sh: $*" >&2
    exit 1
}

# Concurrency contract (DESIGN.md §10): a monitor is driven by one goroutine
# at a time, so the runtime holds no lock — and the clock, the page words
# and the cubicle's health are plain memory, because an atomic there orders
# nothing and costs a fence a store (§14). The one go statement outside
# benchmark/ starts ParallelOpenLoop's shards.
if grep -nE 'sync\.(RW)?Mutex' $(ls internal/cubicle/*.go | grep -v _test.go); then
    fail "internal/cubicle takes a lock"
fi
# The locks outside it (§14): the fault injector several shards share, and
# the image and guard-page cache of internal/isa.
if find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './internal/isa/isa.go' -not -path './internal/faultinject/faultinject.go' | xargs grep -nE 'sync\.(RW)?Mutex'; then
    fail "a lock outside internal/isa's cache and faultinject's Injector"
fi
if find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './internal/siege/parallel.go' | xargs grep -nE '^[[:space:]]*go [a-zA-Z_(]'; then
    fail "a go statement outside internal/siege/parallel.go"
fi
if grep -n '"sync/atomic"' $(ls internal/cycles/*.go internal/vm/*.go internal/cubicle/*.go | grep -v _test.go); then
    fail "internal/cycles, internal/vm or internal/cubicle imports sync/atomic"
fi

# Free lists (DESIGN.md, "Host object lifetimes"): each is a capped LIFO
# slice, internal/spare's List or one of its own, and never a sync.Pool,
# whose contents depend on when the collector runs — the allocation counts
# the benchmark and the tier-1 gates read must repeat.
if find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs grep -nE '^[^/]*sync\.Pool'; then
    fail "a sync.Pool"
fi

# One page-table walk: the monitor knows which pages a cubicle owns
# (Cubicle.owned; DESIGN.md §12), so nothing in the runtime finds them by
# walking the table. The one walk left is by key, not by owner: the retag
# of a recycled key's pages in acquireKey.
walks="$(awk '/^func /{fn=$0} /\.ForEachPage\(/{ if (fn !~ /acquireKey/) print FILENAME ":" FNR ": " $0 }' $(ls internal/cubicle/*.go | grep -v _test.go))"
if [ -n "$walks" ]; then
    echo "$walks"
    fail "internal/cubicle walks the whole page table outside acquireKey"
fi

# One monitor, one clock (DESIGN.md §10): every thread charges, and the
# tracer stamps with, the clock NewMonitor made.
clocks="$(awk '/^func /{fn=$0} /cycles\.Clock\{|new\(cycles\.Clock\)/{ if (fn !~ /NewMonitor/) print FILENAME ":" FNR ": " $0 }' $(ls internal/cubicle/*.go internal/trace/*.go | grep -v _test.go))"
if [ -n "$clocks" ]; then
    echo "$clocks"
    fail "internal/cubicle or internal/trace constructs a cycles.Clock outside NewMonitor"
fi

# One recorder (DESIGN.md §6): an event happens only through
# internal/cubicle's note, which bumps the event's Counters rows in Stats
# and, with tracing on, appends it to the ring. No other code there bumps a
# Stats counter or calls the tracer, and no non-test file of any package
# outside internal/trace records into a tracer (Record, CallEnter,
# CallExit) — save CallExit in internal/cubicle closing the span note opened.
notes="$(find . -name '*.go' -not -name '*_test.go' -not -path './internal/trace/*' | xargs awk '
    FNR == 1 { fn = ""; cub = FILENAME ~ /^\.\/internal\/cubicle\/[^\/]*$/ }
    /^func / { fn = $0 }
    (cub && (/Stats\.[A-Za-z]+(\[[^]]*\])?[[:space:]]*(\+\+|\+=)/ || /\.trc\.[A-Za-z]+\(/)) || /\.(Record|CallEnter|CallExit)\(/ {
        if (fn !~ /^func \(m \*Monitor\) note\(/ && !(cub && /\.CallExit\(/)) print FILENAME ":" FNR ": " $0
    }')"
if [ -n "$notes" ]; then
    echo "$notes"
    fail "a Stats counter bumped or a tracer called outside internal/cubicle's note"
fi

# One view maker a package (DESIGN.md §16): a text that aliases a record's
# bytes is made by view in internal/sqldb/value.go and nowhere else, so
# grepping for its callers finds every string that changes when a page
# does; and the one text speedtest runs in place, a view of the buffer it
# builds statements in, is made by view in internal/speedtest/speedtest.go.
# (unsafe.Sizeof makes no view.)
for f in internal/sqldb/value.go internal/speedtest/speedtest.go; do
    dir="$(dirname "$f")"
    unsafes="$(awk '/^func /{fn=$0} FNR == 1 {fn=""} /unsafe\./ && !/unsafe\.Sizeof/ { if (fn !~ /^func view\(/) print FILENAME ":" FNR ": " $0 }' $(ls "$dir"/*.go | grep -v _test.go))"
    if [ -n "$unsafes" ] || [ "$(grep -l '"unsafe"' $(ls "$dir"/*.go | grep -v _test.go))" != "$f" ]; then
        echo "$unsafes"
        fail "$dir uses unsafe outside view in $f"
    fi
done

# Open-coded defers (DESIGN.md §15): a defer the compiler does not
# open-code goes through runtime.deferprocStack and the panic-time defer
# walk on every crossing, so Handle.Call is split into bodies of at most
# two defers and one return; every defer of trampoline.go is open-coded.
defers="$(go build -gcflags=-d=defer ./internal/cubicle 2>&1 | grep 'trampoline\.go' || true)"
if [ -z "$defers" ]; then
    fail "the compiler reported no defers in internal/cubicle/trampoline.go"
fi
if echo "$defers" | grep -v 'open-coded defer$'; then
    fail "the defers above are not open-coded"
fi

# Reachability (reach_test.go): every exported name under internal/ is
# reached by name from non-test code, or allowed with its reason.
go test -count=1 -run '^TestExportedNamesAreReached$' .
