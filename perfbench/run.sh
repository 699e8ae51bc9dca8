#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs one
# workload in a fresh process:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --smoke
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a DumbNet source tree (no dune-project or lib/ here)" >&2
  exit 2
fi
# The measured configuration is fixed in the program; clear the knobs
# that would otherwise switch engine, pool width or sharding.
unset DUMBNET_ENGINE DUMBNET_JOBS DUMBNET_SHARDS
# Keep every build output inside the tree.
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then dune=(dune); else dune=(opam exec -- dune); fi
"${dune[@]}" build --root . ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
