"""tools/bench_record.py: how runs become a BENCH record's cell."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def run(ops_per_s=None, steps=None, exit=0, failed=0, slowdown=None):
    if ops_per_s is None:
        return {"exit": exit, "result": None, "stderr": "Traceback ...", "log": "x"}
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "ops/s"}}
    if steps is not None:
        metrics["steps_per_op"] = {"value": steps, "unit": "steps"}
    if slowdown is not None:
        metrics["calibration.slowdown"] = {"value": slowdown, "unit": "x"}
    return {"exit": exit, "result": {"failed": failed, "metrics": metrics},
            "stderr": "", "log": "x"}


BETTER = {"ops_per_s": "higher", "steps_per_op": "lower", "calibration.slowdown": "lower"}


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


def traced_cell(parent_slowdowns, change_slowdowns):
    pairs = [{"parent": run(100 + k, slowdown=a), "change": run(200 + k, slowdown=b)}
             for k, (a, b) in enumerate(zip(parent_slowdowns, change_slowdowns))]
    return bench_record.cell_record("compile", 0, pairs, BETTER)


def test_a_traced_cell_calibrated_differently_reports_no_gain():
    # Quartiles 0.95-1.05 against 1.35-1.45: the sides ran on a machine in
    # two states, so no metric of the cell claims a gain, however it falls.
    cell = traced_cell([0.9, 0.95, 1.0, 1.05, 1.1], [1.3, 1.35, 1.4, 1.45, 1.5])
    assert cell["calibration_differs"] is True
    assert all("gain" not in entry for entry in cell["metrics"].values())
    ops = cell["metrics"]["ops_per_s"]
    assert (ops["change_wins"], ops["parent"]["median"], ops["change"]["median"]) == (5, 102, 202)
    # The same the other way round.
    assert traced_cell([1.3, 1.35, 1.4, 1.45, 1.5], [0.9, 0.95, 1.0, 1.05, 1.1])[
        "calibration_differs"] is True


def test_a_traced_cell_whose_calibrations_overlap_reports_its_gains():
    # Quartiles 0.95-1.05 against 1.05-1.15 touch: one state of the machine.
    cell = traced_cell([0.9, 0.95, 1.0, 1.05, 1.1], [1.0, 1.05, 1.1, 1.15, 1.2])
    assert cell["calibration_differs"] is False
    assert cell["metrics"]["ops_per_s"]["gain"] is True
    # An end-to-end cell measures no calibration and is not marked.
    pairs = [{"parent": run(100), "change": run(200)} for _ in range(5)]
    assert "calibration_differs" not in bench_record.cell_record("compile", 0, pairs, BETTER)


def test_a_run_without_its_json_line_is_counted_not_measured():
    pairs = [{"parent": run(100, failed=2, exit=1), "change": run(exit=1)},
             {"parent": run(120), "change": run(130)}]
    cell = bench_record.cell_record("cli", 0, pairs, BETTER)
    assert cell["runs_failed"] == {"parent": 1, "change": 1}
    assert cell["ops_failed"] == {"parent": 2, "change": 0}
    ops = cell["metrics"]["ops_per_s"]
    assert ops["change"] == {"median": 130.0, "q1": 130.0, "q3": 130.0}
    assert (ops["change_wins"], ops["parent_wins"]) == (1, 0)


def test_every_run_reads_bytecode_from_its_own_prefix_and_writes_none(tmp_path):
    base = {"PATH": "/bin", "PYTHONPYCACHEPREFIX": "/elsewhere"}
    env = bench_record.run_env(tmp_path / "parent", base=base)
    assert env == {"PATH": "/bin", "PYTHONPYCACHEPREFIX": str(tmp_path / "parent"),
                   "PYTHONDONTWRITEBYTECODE": "1"}
    assert base["PYTHONPYCACHEPREFIX"] == "/elsewhere"
    warm = bench_record.run_env(tmp_path / "parent", write_bytecode=True,
                                base={"PYTHONDONTWRITEBYTECODE": "1"})
    assert warm == {"PYTHONPYCACHEPREFIX": str(tmp_path / "parent")}


def test_the_prefix_keeps_the_standard_library_and_none_of_the_checkout(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "helper.py").write_text("X = 1\n")
    (checkout / "perfbench" / "run.py").write_text("import colorsys, helper\n")
    (checkout / "perfbench" / "__pycache__").mkdir()
    pycache = tmp_path / "pycache"
    (pycache / "stale").mkdir(parents=True)
    bench_record.prepare_pycache(checkout, pycache, ("harness",))
    cached = [p.name for p in pycache.rglob("*.pyc")]
    assert any(name.startswith("colorsys.") for name in cached)
    assert not any(name.startswith("helper.") for name in cached)
    assert not (pycache / "stale").exists()
    assert not bench_record.mirror(pycache, checkout).exists()
    assert list((checkout / "perfbench" / "__pycache__").iterdir()) == []


def fake_work_counts(checkout, body):
    (checkout / "tools").mkdir(parents=True)
    (checkout / "tools" / "work_counts.py").write_text(body)


def test_each_side_runs_its_own_work_counts_script(tmp_path):
    rows = {"single/sign/residual": {"bytecodes": 1490.16, "calls": 71.0}}
    fake_work_counts(tmp_path / "change", "import json, sys\n"
                     "assert sys.argv[1:] == ['--json']\n"
                     "print('table first')\n"
                     f"print(json.dumps({{'python': 'CPython 3.11.7', 'programs': 50, "
                     f"'seed': 0, 'per_analysis': {rows!r}}}))\n")
    fake_work_counts(tmp_path / "broken", "raise SystemExit('no counts')\n")
    (tmp_path / "parent").mkdir()
    runs = {side: bench_record.work_counts(tmp_path / side, tmp_path / f"{side}.log",
                                           tmp_path / "pycache")
            for side in ("parent", "change", "broken")}
    # A checkout without the script runs nothing; a failing one is counted.
    assert runs["parent"] is None
    assert runs["change"]["exit"] == 0
    assert (runs["broken"]["exit"], runs["broken"]["result"]) == (1, None)
    assert "no counts" in (tmp_path / "broken.log").read_text()
    record = bench_record.work_counts_record(runs)
    assert record["parent"] is None and record["change"] == rows
    assert (record["python"], record["programs"], record["seed"]) == ("CPython 3.11.7", 50, 0)
    assert bench_record.work_counts_record(
        {"parent": runs["change"], "change": runs["broken"]})["parent"] == rows
    assert bench_record.work_counts_record({"parent": None, "change": None}) == {
        "command": record["command"], "python": None, "programs": None, "seed": None,
        "parent": None, "change": None}
