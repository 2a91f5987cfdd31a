"""The abstract source-language interpreter, written as meta-language data.

The interpreter is a meta-language *program*, not host code: the whole
pipeline depends on being able to feed it to the partial evaluator.  Its
single match dispatches on the embedded source AST; every leaf computes
with the abstract primitives, so the same program serves any numeric
domain the evaluator is run with.

Meta-level analysis of a target program runs this interpreter over the
target's embedded definitional interpreter (:func:`analyze_meta_target`).
That embedding is a constant of the target, like
``tgtlang.interpreter_fixture``, so it is built once per target and
cached; only the encoded program is embedded per call.  Its
equal subtrees are one object, and each analysis gives the evaluator a
memo of its pair calls, so each distinct ``evalabs`` call runs once.

Every entry point reports a source program or input nested too deeply
for the host stack to embed as :class:`FuelExhausted`, as the evaluator
reports one too deep to evaluate.
"""

from __future__ import annotations

from functools import lru_cache

from .domains import (
    AbsValue,
    NumericDomain,
    check_domain,
    eta_met_value,
    make_pair,
    met_value_to_abs,
)
from .errors import FuelExhausted
from .met.interp import apply_met_function
from .met.parser import parse_met
from .met.syntax import EvalBudget, MetExpr, MetValue, VConstruct, VTuple
from .srclang import SrcExpr, SrcValue, embed_src_expr, embed_src_value
from .tgtlang import TgtProgram, encode_tgt_program, interpreter_fixture, target_of

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


def _embed(embed, data) -> MetValue:
    """``embed(data)``, with data nested too deeply for the host stack
    reported as running out of budget, as :func:`eval_met` reports it."""
    try:
        return embed(data)
    except RecursionError:
        raise FuelExhausted("evaluation exceeded the host recursion depth") from None


@lru_cache(maxsize=None)
def _embedded_interpreter(target: str) -> MetValue:
    """``target``'s definitional interpreter, embedded; one value per target.

    The embedding is shared: equal subtrees are one object (Filliatre &
    Conchon, "Type-safe modular hash-consing", 2006), so the evaluator's
    pair-call memo, keyed by identity, runs each distinct ``evalabs``
    call of :func:`analyze_meta_target` once."""
    return _shared(embed_src_expr(interpreter_fixture(target)), {})


def _shared(v: MetValue, table: dict) -> MetValue:
    """``v`` with equal subtrees made one object, the first of them met in
    ``table``."""
    if type(v) is VConstruct:
        v = VConstruct(v.tag, tuple([_shared(a, table) for a in v.args]))
    return table.setdefault(v, v)


def analyze_meta(domain: NumericDomain, src_program: SrcExpr, src_input: SrcValue,
                 budget: EvalBudget | None = None) -> AbsValue:
    """Abstractly interpret ``src_program`` on a concrete input.

    The result soundly approximates concrete evaluation: whenever
    ``eval_src(src_program, src_input)`` is defined, it is contained in
    the returned abstract value.
    """
    arg = VTuple(_embed(embed_src_expr, src_program), _embed(embed_src_value, src_input))
    return _run(domain, arg, budget)


def analyze_meta_abstract(domain: NumericDomain, src_program: SrcExpr,
                          abstract_input: AbsValue,
                          budget: EvalBudget | None = None) -> AbsValue:
    """Abstractly interpret ``src_program`` on an abstract input.

    Sound for every concrete input described by ``abstract_input``: if
    ``contains(abstract_input, v)`` and ``eval_src(src_program, v)`` is
    defined, the result contains it.
    """
    arg = VTuple(_embed(embed_src_expr, src_program), check_domain(abstract_input, domain))
    return _run(domain, arg, budget)


def analyze_meta_target(domain: NumericDomain, program: TgtProgram, i: int | AbsValue,
                        budget: EvalBudget | None = None) -> AbsValue:
    """Meta-level analysis of a target program on a concrete or abstract
    input: the abstract interpreter run over the target's definitional
    interpreter.  A concrete input is its singleton abstraction, as for
    the residual, and the program and input are the residual's argument
    (:func:`target_argument`).

    The same as ``analyze_meta_abstract`` over ``interpreter_fixture(t)``
    for the program's target ``t`` and ``abstract_target_input``, in
    result, error and steps, but the interpreter is embedded once per
    target, with its equal subtrees shared, and the evaluator memoizes its
    ``evalabs`` calls for the length of the analysis (``EvalBudget.memo``).
    """
    if isinstance(i, int):
        i = domain.eta_int(i)
    data = target_argument(program, check_domain(i, domain))
    arg = VTuple(_embedded_interpreter(target_of(program)), data)
    if budget is None:
        budget = EvalBudget()
    budget.memo = {}
    try:
        return _run(domain, arg, budget)
    finally:
        budget.memo = None


def target_argument(program: TgtProgram, abstract_input: AbsValue) -> MetValue:
    """The argument of both analyses of a target program, meta-level and
    residual: the encoded program, embedded, paired with the abstract
    input.  The abstract interpreter abstracts it with ``eta`` first,
    which gives :func:`abstract_target_input`'s value."""
    return VTuple(embed_src_value(encode_tgt_program(program)), abstract_input)


def abstract_target_input(domain: NumericDomain, encoded_program: SrcValue,
                          abstract_value: AbsValue) -> AbsValue:
    """Abstract input pairing an exactly-known encoded program with an
    abstract target value: what meta-level analysis of a target program
    abstracts its data to."""
    return make_pair(eta_met_value(embed_src_value(encoded_program), domain), abstract_value)
