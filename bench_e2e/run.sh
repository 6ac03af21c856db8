#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it; every argument
# is passed to the benchmark.  Run from the root of a checkout:
#   bash bench_e2e/run.sh --workload steady-join --seed 1 --seconds 10 --trace 0
set -euo pipefail
# --cache=disabled keeps the build inside the checkout.
dune build --root . --cache=disabled --display quiet ./bench_e2e/main.exe 1>&2
exec ./_build/default/bench_e2e/main.exe "$@"
