#!/usr/bin/env bash
# Parity with a parent: builds REV (default HEAD~1, extracted with git
# archive) and the working tree, runs every parity line of
# scripts/runs.txt twice on each side and compares what it prints, stdout
# and stderr. One line a run: same, differs (with the first differing
# line, < the parent's, > the working tree's) or nondeterministic (a side
# printed two different outputs). Then every test whose name says
# Pinned, each side against its own pins. Times nothing; exits non-zero
# only on a nondeterministic run, because a declared model change differs
# on purpose.
# Usage: scripts/parity.sh [REV]
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/runlib.sh
rev=${1:-HEAD~1}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/src" "$tmp/parent" "$tmp/head"
git archive "$rev" | tar -x -C "$tmp/src"
declare -A src=([parent]=$tmp/src [head]=$PWD)

n=0 same=0 differs=0 nondet=0
runs parity >"$tmp/runs"
while read -r -u3 pkg args; do
    n=$((n + 1))
    for side in parent head; do
        for o in "$tmp/$side/$n.1" "$tmp/$side/$n.2"; do
            (cd "${src[$side]}" && build "$pkg" "$tmp/$side" && "$tmp/$side/${pkg##*/}" $args) >"$o" 2>&1 </dev/null ||
                echo "exit status $?" >>"$o"
        done
    done
    cmd="${pkg##*/}${args:+ $args}"
    if ! cmp -s "$tmp/parent/$n".{1,2} || ! cmp -s "$tmp/head/$n".{1,2}; then
        nondet=$((nondet + 1))
        echo "nondeterministic  $cmd"
    elif cmp -s "$tmp"/{parent,head}/"$n.1"; then
        same=$((same + 1))
        echo "same              $cmd"
    else
        differs=$((differs + 1))
        echo "differs           $cmd: $(diff "$tmp"/{parent,head}/"$n.1" | grep -m 1 '^[<>]' | cut -c 1-160)"
    fi
done 3<"$tmp/runs"

for side in parent head; do
    if (cd "${src[$side]}" && go test -count=1 -run Pinned ./...) >"$tmp/$side.pins" 2>&1; then
        echo "pins: $side pass"
    else
        echo "pins: $side FAIL"
        grep -E '^(---|\s+\S+_test\.go)' "$tmp/$side.pins" | head -n 10
    fi
done
echo "parity.sh: $same/$n same, $differs differ, $nondet nondeterministic against $rev"
[ "$nondet" -eq 0 ]
