#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see README.md).  Build output goes to stderr, so the
# last line of stdout is the benchmark's result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full checkout (dune-project and lib/ missing)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
