"""The abstract source-language interpreter, written as meta-language data.

The interpreter is a meta-language *program*, not host code: the whole
pipeline depends on being able to feed it to the partial evaluator.  Its
single match dispatches on the embedded source AST; every leaf computes
with the abstract primitives, so the same program serves any numeric
domain the evaluator is run with.
"""

from __future__ import annotations

from functools import lru_cache

from .domains import AbsValue, NumericDomain, eta_met_value, make_pair, met_value_to_abs
from .met.interp import apply_met_function
from .met.parser import parse_met
from .met.syntax import EvalBudget, MetExpr, VAbs, VTuple
from .srclang import SrcExpr, SrcValue, embed_src_expr, embed_src_value

# One match arm per source constructor.  A conditional filters the
# abstract predicate against "nonzero" on the then-branch and "zero" on
# the else-branch, then joins; pairs keep the concrete tuple structure.
ABSTRACT_INTERPRETER_SOURCE = """
let rec evalabs ev =
  match fst ev with
  | X -> snd ev
  | Num(n) -> eta(n)
  | Add(e1, e2) -> aadd(evalabs (e1, snd ev), evalabs (e2, snd ev))
  | Mul(e1, e2) -> amul(evalabs (e1, snd ev), evalabs (e2, snd ev))
  | Eq(e1, e2) -> aeq(evalabs (e1, snd ev), evalabs (e2, snd ev))
  | Pair(e1, e2) -> (evalabs (e1, snd ev), evalabs (e2, snd ev))
  | Fst(e) -> fst (evalabs (e, snd ev))
  | Snd(e) -> snd (evalabs (e, snd ev))
  | If(ep, ec, ea) ->
      let p = evalabs (ep, snd ev) in
      ajoin(fne0(p, evalabs (ec, snd ev)), feq0(p, evalabs (ea, snd ev)))
in fun input ->
  let iabs = eta(snd input) in
  evalabs (fst input, iabs)
"""


@lru_cache(maxsize=1)
def build_abstract_interpreter() -> MetExpr:
    """The abstract interpreter AST; the same tree on every call.

    It denotes a one-argument function over a pair of an embedded source
    program and an embedded source input.
    """
    return parse_met(ABSTRACT_INTERPRETER_SOURCE)


def _run(domain: NumericDomain, arg, budget: EvalBudget | None) -> AbsValue:
    result = apply_met_function(build_abstract_interpreter(), arg, domain, budget)
    return met_value_to_abs(result)


def analyze_meta(domain: NumericDomain, src_program: SrcExpr, src_input: SrcValue,
                 budget: EvalBudget | None = None) -> AbsValue:
    """Abstractly interpret ``src_program`` on a concrete input.

    The result soundly approximates concrete evaluation: whenever
    ``eval_src(src_program, src_input)`` is defined, it is contained in
    the returned abstract value.
    """
    arg = VTuple(embed_src_expr(src_program), embed_src_value(src_input))
    return _run(domain, arg, budget)


def analyze_meta_abstract(domain: NumericDomain, src_program: SrcExpr,
                          abstract_input: AbsValue,
                          budget: EvalBudget | None = None) -> AbsValue:
    """Abstractly interpret ``src_program`` on an abstract input.

    Sound for every concrete input described by ``abstract_input``: if
    ``contains(abstract_input, v)`` and ``eval_src(src_program, v)`` is
    defined, the result contains it.
    """
    arg = VTuple(embed_src_expr(src_program), VAbs(abstract_input))
    return _run(domain, arg, budget)


def abstract_target_input(domain: NumericDomain, encoded_program: SrcValue,
                          abstract_value: AbsValue) -> AbsValue:
    """Abstract input pairing an exactly-known encoded program with an
    abstract target value, for analyzing a target program meta-level."""
    return make_pair(eta_met_value(embed_src_value(encoded_program), domain), abstract_value)
