#!/usr/bin/env bash
# Build the wall-clock benchmark from source, then run it.
#
#   bash wallbench/run.sh --workload steady|coldboot|serve --seed N \
#     --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# keep every build artifact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . ./wallbench/main.exe 1>&2
exec ./_build/default/wallbench/main.exe "$@"
