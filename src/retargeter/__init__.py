"""Retarget an abstract interpreter to a new language by specialization.

Given a definitional interpreter for a target language (written in the
source language) and an abstract interpreter for the source language
(written as meta-language data), partial evaluation of the latter with
respect to the former yields a direct abstract interpreter for the
target.  This package contains the three languages, the abstract
domains, the partial evaluator, the retargeting pipeline, and the
randomized harnesses that check soundness and equivalence.

The names imported here are the public API.  The languages, the domain
values and the specializer itself are reached through their submodules
(``retargeter.domains``, ``retargeter.peval``, ...).
"""

from .analyzer import analyze_meta, analyze_meta_abstract
from .domains import DOMAINS, INTERVAL, SIGN, get_domain
from .errors import (
    DecodeError,
    FuelExhausted,
    ParseError,
    ReifyError,
    RetargeterError,
    StuckError,
)
from .met.syntax import EvalBudget
from .retargeting import (
    Report,
    RetargetedAnalyzer,
    bench_steps,
    check_equivalence,
    check_soundness,
    retarget,
    run_specialized,
    run_specialized_abstract,
)
from .tgtlang import eval_tgt, parse_tgt_program

__version__ = "0.1.0"
