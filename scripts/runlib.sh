# Reads scripts/runs.txt for scripts/check.sh, runcover.sh and parity.sh,
# which source this file from the root of the checkout.
set -f # a run's arguments are split on blanks and never globbed

# runs TAG prints package and arguments of every line of runs.txt tagged
# TAG that this host runs: a 2cpu line needs two CPUs, a 1cpu line runs
# only where there is one. It fails on a line tagged both smoke and
# cover, which check.sh would run twice.
runs() {
    awk -v tag="$1" -v cpus="$(nproc)" '
    /^[[:space:]]*(#|$)/ { next }
    {
        delete has
        for (i = split($1, t, ","); i > 0; i--) has[t[i]]
        if ("smoke" in has && "cover" in has) { print "runs.txt:" NR ": both smoke and cover" > "/dev/stderr"; exit 1 }
        if (!(tag in has)) next
        if ("2cpu" in has && cpus < 2 || "1cpu" in has && cpus >= 2) { print "runs: not on this " cpus "-CPU host: " $0 > "/dev/stderr"; next }
        $1 = ""
        print
    }' scripts/runs.txt
}

# build PKG DIR [FLAG...] builds PKG of the checkout in the working
# directory to DIR/<base name of PKG>, once. ./benchmark is a module of
# its own, built from outside it with -C.
build() {
    local pkg=$1 dir=$2
    shift 2
    [ -x "$dir/${pkg##*/}" ] && return
    if [ "$pkg" = ./benchmark ]; then
        go build -C benchmark "$@" -o "$dir/benchmark" .
    else
        go build "$@" -o "$dir/${pkg##*/}" "$pkg"
    fi
}

# runall TAG DIR [cover] builds into DIR and runs every TAG line, each
# with its stdout kept in .runs/: a non-zero exit fails. With cover, each
# package is built with counters for every internal package and itself
# (without itself in -coverpkg a main writes no counters when it exits).
runall() {
    local pkg args cmd out
    runs "$1" >"$2/runs"
    mkdir -p .runs
    while read -r -u3 pkg args; do
        build "$pkg" "$2" ${3:+-cover -coverpkg=cubicleos/internal/...,cubicleos/${pkg#./}}
        cmd="${pkg##*/}${args:+ $args}"
        out=.runs/${cmd//[ \/]/_}.out
        echo "run: $cmd" >&2
        if ! "$2/${pkg##*/}" $args >"$out" </dev/null; then
            echo "run: $cmd failed" >&2
            return 1
        fi
    done 3<"$2/runs"
}
