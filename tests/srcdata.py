"""Source-language helpers that only the tests use: the inverses of the
embeddings into meta-language data, and a seeded value generator."""

from __future__ import annotations

import random

from retargeter import srclang
from retargeter.errors import StuckError
from retargeter.met.syntax import MetValue, VConstruct, VInt, VTuple
from retargeter.srclang import SRC_SIGNATURE, Num, SInt, SPair, SrcExpr, SrcValue, random_src_value

_TAGS = {tag: getattr(srclang, tag) for tag in SRC_SIGNATURE}


def unembed_src_expr(v: MetValue) -> SrcExpr:
    """Inverse of :func:`srclang.embed_src_expr` on its range."""
    cls = _TAGS.get(v.tag) if isinstance(v, VConstruct) else None
    if cls is Num:
        if len(v.args) == 1 and isinstance(v.args[0], VInt):
            return Num(v.args[0].value)
    elif cls is not None and len(v.args) == SRC_SIGNATURE[v.tag]:
        return cls(*map(unembed_src_expr, v.args))
    raise StuckError(f"not an embedded source expression: {v!r}")


def unembed_src_value(v: MetValue) -> SrcValue:
    """Inverse of :func:`srclang.embed_src_value` on its range."""
    if isinstance(v, VInt):
        return SInt(v.value)
    if isinstance(v, VTuple):
        return SPair(unembed_src_value(v.fst), unembed_src_value(v.snd))
    raise StuckError(f"not an embedded source value: {v!r}")


def gen_random_src_value(seed: int, depth_bound: int = 3, magnitude_bound: int = 1000) -> SrcValue:
    """Deterministic random value: same seed, same result."""
    if depth_bound < 0 or magnitude_bound <= 0:
        raise ValueError("bounds must be positive")
    return random_src_value(random.Random(seed), depth_bound, magnitude_bound)
