#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Fails, printing no result, when the checkout has no sources to build.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f dune-project || ! -d lib/node ]]; then
  echo "perfbench: no repository sources here to build" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe --counts-dir _build/perfbench "$@"
