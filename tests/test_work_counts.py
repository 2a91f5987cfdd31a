"""tools/work_counts.py: the counts are deterministic.

Two runs, and runs under three hash seeds, must print the same calls and
bytecodes per analysis, or a difference in counts between two commits
would not show a difference in work.
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
    assert len(table) == 8
    for key, row in table.items():
        assert row["calls"] > 0 and row["bytecodes"] > row["calls"], key
        if key.endswith("/residual"):
            meta = table[key.replace("/residual", "/meta")]
            assert row["calls"] < meta["calls"] and row["bytecodes"] < meta["bytecodes"], key
    for hash_seed in ("0", "1", "2"):
        assert run(hash_seed)["per_analysis"] == table, hash_seed
