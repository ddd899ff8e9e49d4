"""Self-checks of the benchmark itself (not of the package).

    python3 -m pytest -q bench/test_bench.py

The query generator must be a pure function of the seed, and the traced
run's counts must repeat exactly for a seed, since a later change may
claim a gain on a count only when it repeats.  The traced sweep takes
about a minute per run here, so this file is not part of the package's
test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import queries

BENCH = Path(__file__).resolve().parent


def test_query_stream_is_a_function_of_the_seed():
    assert queries.query_stream(7) == queries.query_stream(7)
    assert queries.query_stream(7) != queries.query_stream(8)
    assert queries.cli_calls(7, 50) == queries.cli_calls(7, 50)
    assert queries.cli_calls(7, 50) != queries.cli_calls(8, 50)


def test_query_stream_mix():
    stream = queries.query_stream(7)
    large = [q for q in stream if q["p"] + q["q"] >= queries.LARGE_SUM[0]]
    assert len(large) == len(stream) // queries.LARGE_EVERY
    assert all(2 <= q["p"] + q["q"] <= queries.LARGE_SUM[1] for q in stream)
    assert any("(-" in q["bundles"] for q in stream)
    # the large queries, which make the latency tail, are shared by all seeds
    assert sorted(map(str, large)) == sorted(
        str(q) for q in queries.query_stream(8) if q["p"] + q["q"] >= queries.LARGE_SUM[0])


def _traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=180)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", ["sweep_default", "query_stream", "cli_oneshot"])
def test_traced_counts_repeat(workload):
    first, second = _traced(workload, 11), _traced(workload, 11)
    counts = {name for name, m in first.items() if m["unit"] == "count"}
    assert {"point.p_mul.calls", "projective.reduce_new_keys",
            "verify.group.euler_grid.cases"} <= counts
    assert {n: first[n]["value"] for n in counts} == \
        {n: second[n]["value"] for n in counts}
    assert sum(first[n]["value"] for n in counts) > 0
