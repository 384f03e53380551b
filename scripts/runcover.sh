#!/usr/bin/env bash
# Statement coverage under the runs alone: every cover line of
# scripts/runs.txt, its package built with counters for every internal
# package and run under GOCOVERDIR, no test. Code that no run reaches is
# code only tests keep alive, so each internal package's coverage must
# stay at its floor, the value measured when it was last raised, rounded
# down: raise a floor when a change lifts it. A floor whose package the
# runs do not report fails too, so a deleted package cannot leave a stale
# one behind. The internal functions no run reaches are a ratchet: each is
# listed in scripts/unreached.txt, which fails the script as soon as it
# names one a run reaches, so the list can only shrink.
# scripts/check.sh runs this script.
set -euo pipefail
export LC_ALL=C # sort and comm must collate alike

# A floor under 70 %, or one lowered, names its reason beside it.
floors=$(sed 's/#.*//' <<'FLOORS' | tr '\n' ' '
cluster=70 cubicle=78 cycles=95 experiments=84 httpd=75
isa=88 lwip=82 netdev=80 plat=100 ramfs=84 siege=88 spare=100 speedtest=78
sqldb=80 trace=84 ualloc=95 ukernel=90 uktime=100 ulibc=100 vfscore=90 vm=79
boot=78        # NewFS's uncovered blocks are its error returns, safety code
faultinject=57 # no run drops frames at the wire or strikes a cluster route
mpk=55         # no run checks an execute access or takes a denied fault
snapshot=66    # its corrupt-blob rejections are safety code only tests feed
urandom=21     # no run draws from RANDOM, Figure 5's shared device cubicle
FLOORS
)

cd "$(dirname "$0")/.."
. scripts/runlib.sh
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/cov"
GOCOVERDIR="$tmp/cov" runall cover "$tmp" cover

go tool covdata textfmt -i "$tmp/cov" -o "$tmp/all.txt"
grep -E '^(mode:|cubicleos/internal/)' "$tmp/all.txt" >"$tmp/internal.txt"
go tool cover -func="$tmp/internal.txt" |
	awk '$NF == "0.0%" { f = $1; sub(/^cubicleos\//, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' |
	sort >"$tmp/unreached"
sed 's/#.*//; s/[[:space:]]*$//; /^$/d' scripts/unreached.txt | tr -s ' \t' ' ' | sort >"$tmp/listed"
comm -23 "$tmp/unreached" "$tmp/listed" | sed 's/^/runcover: no run reaches /; s/$/, and scripts\/unreached.txt does not list it/' >"$tmp/bad"
comm -13 "$tmp/unreached" "$tmp/listed" | sed 's/^/runcover: a run reaches /; s/$/: delete its line in scripts\/unreached.txt/' >>"$tmp/bad"
echo "runcover: $(wc -l <"$tmp/unreached") internal functions no run reaches, $(wc -l <"$tmp/listed") listed"
bad=0
if [ -s "$tmp/bad" ]; then cat "$tmp/bad"; bad=1; fi

go tool covdata percent -i "$tmp/cov" | awk -v floors="$floors" '
BEGIN { n = split(floors, f); for (i = 1; i <= n; i++) { split(f[i], kv, "="); floor[kv[1]] = kv[2] } }
{
    pct = $3; sub(/%/, "", pct)
    printf "runcover: %-40s %5.1f%%", $1, pct
    if ($1 !~ /^cubicleos\/internal\//) { print ""; next }
    name = substr($1, length("cubicleos/internal/") + 1)
    seen[name] = 1
    if (!(name in floor)) { printf "  no floor: add one\n"; bad = 1; next }
    if (pct + 0 < floor[name]) { printf "  below its floor of %d%%\n", floor[name]; bad = 1; next }
    printf "  floor %d%%\n", floor[name]
}
END {
    for (name in floor) if (!(name in seen)) { printf "runcover: floor %s=%d names no package the runs reported\n", name, floor[name]; bad = 1 }
    exit bad
}' || bad=1
exit "$bad"
