#!/bin/sh
# Builds the ledger from source, then runs one workload and prints its
# result line (see README.md).  From the repository root:
#
#   sh bench/ledger/run.sh --workload W --seed S --seconds N --trace 0|1
#
# The build uses no shared dune cache, so nothing is read or written
# outside the checkout.
set -e
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/ledger/ledger.exe >&2
exec ./_build/default/bench/ledger/ledger.exe --report "$@"
