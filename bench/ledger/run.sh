#!/usr/bin/env bash
# Benchmark entry point named by BENCHMARK.json.  Run it from the root of
# a checkout of this repository:
#
#   bash bench/ledger/run.sh --workload churn --seed 1 --seconds 25 --trace 0
#
# It builds the ledger from the sources in that checkout, then hands its
# arguments to `ledger.exe bench`, whose last line of standard output is
# the JSON result.  Build output goes to standard error.
set -euo pipefail

# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled

dune build --root . bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe bench "$@"
