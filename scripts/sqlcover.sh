#!/usr/bin/env sh
# Statement coverage of internal/sqldb under the runs alone: speedtest1,
# every figure of cubicle-bench and the database example, built with
# coverage counters and run without any test. A construct of the SQL
# engine that none of them reaches is code only the package's own tests
# keep alive (DESIGN.md §16 names the run each kept construct is for), so
# the percentage must not fall below the floor; raise the floor when a
# change lifts it.
set -eu

floor=79

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/cov"

# The main package must be in -coverpkg too, or the binary writes no
# counters when it exits.
for main in cmd/speedtest1 cmd/cubicle-bench examples/database; do
    go build -cover -coverpkg="cubicleos/internal/sqldb,cubicleos/$main" \
        -o "$tmp/$(basename "$main")" "./$main"
done
GOCOVERDIR="$tmp/cov" "$tmp/speedtest1" -stat 10 >/dev/null
GOCOVERDIR="$tmp/cov" "$tmp/cubicle-bench" -fig all -size 20 >/dev/null
GOCOVERDIR="$tmp/cov" "$tmp/database" >/dev/null

out=$(go tool covdata percent -i "$tmp/cov" -pkg cubicleos/internal/sqldb)
echo "sqlcover: $out"
pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')
if [ -z "$pct" ] || ! awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p >= f) }'; then
    echo "sqlcover: internal/sqldb coverage ${pct:-unknown}% under the runs is below the floor of $floor%" >&2
    exit 1
fi
