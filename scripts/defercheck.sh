#!/usr/bin/env sh
# Fails unless the compiler open-codes every defer in the cross-cubicle
# call path (internal/cubicle/trampoline.go). A defer that is not
# open-coded goes through runtime.deferprocStack and the panic-time defer
# walk on every crossing; Handle.Call is split into bodies of at most two
# defers and one return to stay inside the compiler's budget.
set -eu

cd "$(dirname "$0")/.."

OUT="$(go build -gcflags=-d=defer ./internal/cubicle 2>&1 | grep 'trampoline\.go' || true)"
if [ -z "$OUT" ]; then
    echo "defercheck.sh: the compiler reported no defers in trampoline.go" >&2
    exit 1
fi
if echo "$OUT" | grep -v 'open-coded defer$'; then
    echo "defercheck.sh: the defers above are not open-coded" >&2
    exit 1
fi
echo "defercheck.sh: $(echo "$OUT" | wc -l | tr -d ' ') defers in trampoline.go, all open-coded"
