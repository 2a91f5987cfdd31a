"""The package API that the benchmark under ``perfbench/`` relies on.

Each workload is built at the benchmark self-test's tiny size, and one op
of it runs and passes its own output check; so a change that removes a
name, a flag or a behaviour the benchmark uses fails here, not only when
the benchmark runs.  Every name pattern the benchmark's tracer wraps must
still match a function of its layer's module.
"""

from __future__ import annotations

import fnmatch
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing     # noqa: E402
import workloads   # noqa: E402


def tiny(name: str, scratch: Path) -> workloads.Workload:
    """The workload ``name`` sized as ``perfbench/selftest.py`` sizes it."""
    workload = workloads.WORKLOADS[name](0, scratch)
    workload.pool_size = 16       # residual
    if name == "harness":
        workload.units = 3        # trials per call
    workload.first_per_bucket = workload.per_bucket = 1    # compile
    workload.programs = 4         # cli
    return workload


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_op_passes_its_check(name, tmp_path):
    workload = tiny(name, tmp_path / name)
    workload.setup()
    item = workload.pool[0]
    assert workload.verify(item, workload.op(item)) is None


@pytest.mark.parametrize("layer", list(tracing.LAYERS))
def test_every_traced_pattern_matches_a_function(layer):
    _, patterns = tracing.LAYERS[layer]
    names = [f.__name__ for f in tracing.layer_functions(layer)]
    for pattern in patterns:
        assert fnmatch.filter(names, pattern), f"{layer}: nothing matches {pattern!r}"
