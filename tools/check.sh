#!/bin/sh
# The repository's three gates, in order; exits nonzero at the first one
# that fails.  Run from anywhere inside a checkout:
#
#     sh tools/check.sh
#
#   1. Tier-1: the tests/ suite.
#   2. The benchmark's self-tests (bench/test_bench.py, about a minute).
#   3. The mutation gate (tools/mutants.py, a few minutes): every
#      catalogued mutant of the fast paths must be killed.
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest -q --continue-on-collection-errors
echo "== bench self-tests"
python3 -m pytest -q bench/test_bench.py
echo "== mutation gate"
python3 tools/mutants.py
