#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload olap_join --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# result object.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no engine sources here; run from the repository root" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
