"""tools/work_counts.py: the counts are deterministic.

Two runs, and runs under three hash seeds, must print the same calls and
bytecodes per analysis (the residual's on abstract inputs included), per
harness trial and per specialization stage, or a difference in counts
between two commits would not show a difference in work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "work_counts.py"


def run(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(SCRIPT), "--programs", "3", "--json"],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_counts_are_the_same_on_every_run_and_hash_seed():
    table = run("0")["per_analysis"]
    # Meta-level analysis, the residual on concrete and on abstract inputs
    # and a soundness and an equivalence trial for two targets and two
    # domains, the four phases of a specialization round trip, and a
    # command-line request through the residual and at meta level.
    assert len(table) == 22
    assert sorted(key.split("/", 2)[2] for key in table if key.count("/") == 2) == sorted(
        ["meta", "residual", "residual_abstract", "harness"] * 4)
    assert sorted(key for key in table if key.startswith("compile/")) == [
        "compile/embed", "compile/parse_met", "compile/print_met", "compile/specialize"]
    assert sorted(key for key in table if key.startswith("cli/")) == [
        "cli/analyze", "cli/analyze-specialized"]
    for key, row in table.items():
        assert row["calls"] > 0 and row["bytecodes"] > row["calls"], key
        if key.endswith(("/residual", "/residual_abstract")):
            meta = table[key.rsplit("/", 1)[0] + "/meta"]
            assert row["calls"] < meta["calls"] and row["bytecodes"] < meta["bytecodes"], key
        if key.endswith("/harness"):
            # A trial of each check runs meta-level analysis once.
            meta = table[key.rsplit("/", 1)[0] + "/meta"]
            assert row["calls"] > 2 * meta["calls"], key
            assert row["bytecodes"] > 2 * meta["bytecodes"], key
    for hash_seed in ("0", "1", "2"):
        assert run(hash_seed)["per_analysis"] == table, hash_seed
