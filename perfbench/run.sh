#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
