"""tools/bench_record.py: how runs become a BENCH record's cell."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def run(ops_per_s=None, steps=None, exit=0, failed=0):
    if ops_per_s is None:
        return {"exit": exit, "result": None, "stderr": "Traceback ...", "log": "x"}
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "ops/s"}}
    if steps is not None:
        metrics["steps_per_op"] = {"value": steps, "unit": "steps"}
    return {"exit": exit, "result": {"failed": failed, "metrics": metrics},
            "stderr": "", "log": "x"}


BETTER = {"ops_per_s": "higher", "steps_per_op": "lower"}


def test_medians_quartiles_and_wins():
    pairs = [{"parent": run(100 + k, 70), "change": run(150 + k, 70)} for k in range(0, 25, 5)]
    cell = bench_record.cell_record("compile", 0, pairs, BETTER)
    ops = cell["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    assert ops["change"]["median"] == 160.0
    assert (ops["change_wins"], ops["parent_wins"], ops["gain"]) == (5, 0, True)
    steps = cell["metrics"]["steps_per_op"]
    assert (steps["change_wins"], steps["parent_wins"], steps["gain"]) == (0, 0, False)
    assert cell["pairs"] == 5 and cell["runs_failed"] == {"parent": 0, "change": 0}
    # Four pairs are too few to show a gain.
    assert not bench_record.cell_record("compile", 0, pairs[:4], BETTER)["metrics"]["ops_per_s"]["gain"]


def test_a_gain_needs_nine_tenths_of_the_pairs():
    pairs = [{"parent": run(100), "change": run(200)} for _ in range(9)]
    pairs.append({"parent": run(100), "change": run(90)})
    assert bench_record.cell_record("compile", 0, pairs, BETTER)["metrics"]["ops_per_s"]["gain"]
    pairs.append({"parent": run(100), "change": run(90)})
    assert not bench_record.cell_record("compile", 0, pairs, BETTER)["metrics"]["ops_per_s"]["gain"]


def test_a_run_without_its_json_line_is_counted_not_measured():
    pairs = [{"parent": run(100, failed=2, exit=1), "change": run(exit=1)},
             {"parent": run(120), "change": run(130)}]
    cell = bench_record.cell_record("cli", 0, pairs, BETTER)
    assert cell["runs_failed"] == {"parent": 1, "change": 1}
    assert cell["ops_failed"] == {"parent": 2, "change": 0}
    ops = cell["metrics"]["ops_per_s"]
    assert ops["change"] == {"median": 130.0, "q1": 130.0, "q3": 130.0}
    assert (ops["change_wins"], ops["parent_wins"]) == (1, 0)
