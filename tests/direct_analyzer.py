"""The analyzer for the target languages derived by hand: the precision oracle.

This is what the textbook recipe (Cousot & Cousot 1977; Rival & Yi 2020)
gives from the target semantics alone.  An instruction ``word n`` maps a
value ``v`` to ``n op v``, where ``op`` is the semantics that
``tgtlang.INSTRUCTIONS`` gives the word, so its abstract transformer maps
``a`` to ``abs_op(eta(n), a)``.  A program is its instructions run first
to last, so the analysis folds the transformers over them.

It reads only the abstract operators in ``retargeter.domains`` and the
instruction table in ``retargeter.tgtlang``: no specializer, evaluator,
abstract interpreter or definitional interpreter.  So a fault that moves
a residual and meta-level analysis alike, which the equivalence harness
cannot see, shows up as a difference from this analyzer.
"""

from __future__ import annotations

import operator

from retargeter import domains
from retargeter.tgtlang import INSTRUCTIONS

# A concrete operator -> its abstract counterpart.
ABSTRACT = {operator.add: domains.abs_add, operator.mul: domains.abs_mul}


def analyze(program, a: domains.AbsValue, domain) -> domains.AbsValue:
    """The abstract value of ``program``'s result on inputs described by
    ``a``, under ``domain``."""
    for word, n in program.instrs:
        a = ABSTRACT[INSTRUCTIONS[word][1]](domains.Num(domain.eta_int(n)), a, domain)
    return a
