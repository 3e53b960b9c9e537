#!/usr/bin/env bash
# Build the benchmark and the cqanull binary from source, then run the
# benchmark with the given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload program_stream --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr, so the last line of stdout is the result.
# The shared dune cache is off, so the build writes inside the checkout
# only.
set -euo pipefail
dune build --root . --cache=disabled ./perfbench/bench.exe ./bin/main.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
