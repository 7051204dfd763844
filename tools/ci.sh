#!/usr/bin/env bash
# Single CI entrypoint: lints + the default test suite.
#
#   tools/ci.sh            # what CI runs; fast (slow_fuzz stays excluded
#                          # via the pytest addopts in pyproject.toml)
#
# The benchmark suite is intentionally separate (it is a perf workload,
# not a correctness gate):  PYTHONPATH=src python -m pytest benchmarks/

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: no wall-clock timing in src/"
python tools/check_no_wallclock.py

echo "== lint: shared evaluator state stays behind the coordination layer"
python tools/check_thread_safety.py

echo "== lint: shared-memory segments have a registered unlink path, only flight rings use them"
python tools/check_shm_hygiene.py

echo "== lint: metric names match the catalog (repro/obs/catalog.py)"
python tools/check_metric_names.py

echo "== lint: repro.parallel and repro.serve do not import each other"
python tools/check_layering.py

echo "== bench: committed results meet their recorded speedup floors"
python tools/check_bench_regression.py

echo "== docs: API index is fresh"
python - <<'EOF'
import pathlib, sys
sys.path.insert(0, "src")
sys.path.insert(0, "tools")
import generate_api_doc
committed = pathlib.Path("docs/API.md").read_text(encoding="utf-8")
if committed != generate_api_doc.render():
    sys.exit("docs/API.md is stale; run: PYTHONPATH=src python tools/generate_api_doc.py")
print("docs/API.md ok")
EOF

echo "== golden query session (examples/query_session.rq, byte-for-byte)"
# the query language's script mode promises deterministic output; this
# lane replays the documented Example 1.1 session and diffs the
# transcript against the committed examples/query_session.out
GOLDEN_OUT=$(mktemp)
trap 'rm -f "$GOLDEN_OUT"' EXIT
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro query -f examples/query_session.rq > "$GOLDEN_OUT"
if ! diff -u examples/query_session.out "$GOLDEN_OUT"; then
    echo "golden query session drifted; regenerate with:"
    echo "  PYTHONPATH=src python -m repro query -f examples/query_session.rq > examples/query_session.out"
    exit 1
fi
echo "examples/query_session.out ok"

echo "== tests (slow_fuzz excluded by default addopts)"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q

echo "== chaos smoke lane (seeded concurrent fault injection, fast subset)"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/test_chaos.py -m "not slow_fuzz"

echo "== streaming chaos smoke lane (seeded feed faults, fast subset)"
# the streaming session must keep its delta/frontier invariants under the
# seeded feed-chaos schedule (torn chunks, bursts, stalls, mid-window
# faults); slow_fuzz holds the 200-seed differential lane
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/test_stream.py -m "not slow_fuzz"

echo "== process-pool smoke lane (crash isolation)"
# the functional tests force backend="process" and run in the default
# suite on any host; this lane re-runs them as a visible gate where the
# pool can actually spread work, and skips loudly where it cannot
USABLE_CORES=$(python -c "import os; print(len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else (os.cpu_count() or 1))")
if [ "$USABLE_CORES" -lt 2 ]; then
    echo "SKIP: process smoke lane needs >= 2 usable cores, have $USABLE_CORES"
else
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/test_procpool.py
fi

echo "== perfbench tracer lane (a traced run still reaches every layer)"
# perfbench's tracer patches kernel and stream functions by name; renaming
# one breaks '--trace 1' and nothing else in this script would notice
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q perfbench/test_perfbench.py -k traced

echo "== regex fuzz fast lane (fixed seed, replayable byte-for-byte)"
# the default suite already runs these hypothesis tests with a random
# seed; this lane pins the seed so a CI failure here reproduces exactly
# with the same command locally (the '0{²' regression was found by fuzz
# — keep the lane deterministic so the next such find is replayable)
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
    tests/test_robustness.py::TestRegexParserFuzz --hypothesis-seed=20260806
