"""The meta-language evaluator as a direct tree walk: the differential oracle.

This is the evaluator ``retargeter.met.interp`` had before it compiled
expressions to closures, kept verbatim with its own pattern matcher and
primitive dispatch so that it shares no evaluation code with the module
it checks.  ``tests/test_met_compile.py`` compares the two on values,
errors and step counts.

Evaluation is environment-based and pure: results depend only on the
expression, the environment, the numeric domain (which interprets the
abstract primitives), and the step budget.  Every evaluation rule
application costs one budget step, which makes step counts a stable,
deterministic cost metric.
"""

from __future__ import annotations

from typing import Mapping

from retargeter import domains
from retargeter.domains import NumericDomain
from retargeter.errors import FuelExhausted, StuckError
from retargeter.met.syntax import (
    App,
    Construct,
    EvalBudget,
    IntLit,
    Lambda,
    Let,
    LetRecFun,
    Match,
    MetExpr,
    MetValue,
    PConstruct,
    PInt,
    PTuple,
    PVar,
    PWild,
    Pattern,
    Prim,
    PrimOp,
    Proj1,
    Proj2,
    Tuple,
    VAbs,
    VClosure,
    VConstruct,
    VInt,
    VTuple,
    Var,
)

Env = Mapping[str, MetValue]


def match_pattern(pat: Pattern, value: MetValue) -> dict[str, MetValue] | None:
    """Bindings produced by matching ``value`` against ``pat``, or None."""
    match pat:
        case PWild():
            return {}
        case PVar(name):
            return {name: value}
        case PInt(n):
            return {} if isinstance(value, VInt) and value.value == n else None
        case PTuple(p1, p2):
            if not isinstance(value, VTuple):
                return None
            left = match_pattern(p1, value.fst)
            if left is None:
                return None
            right = match_pattern(p2, value.snd)
            if right is None:
                return None
            return {**left, **right}
        case PConstruct(tag, pats):
            if not isinstance(value, VConstruct) or value.tag != tag:
                return None
            if len(pats) != len(value.args):
                return None
            bindings: dict[str, MetValue] = {}
            for p, v in zip(pats, value.args):
                sub = match_pattern(p, v)
                if sub is None:
                    return None
                bindings.update(sub)
            return bindings
    raise TypeError(f"not a pattern: {pat!r}")


def eval_prim(op: PrimOp, args: list[MetValue], domain: NumericDomain) -> MetValue:
    """Apply a primitive operator to already-evaluated arguments."""
    if op in (PrimOp.ADD, PrimOp.MUL, PrimOp.EQ):
        a, b = args
        if not (isinstance(a, VInt) and isinstance(b, VInt)):
            raise StuckError(f"{op.value} requires integer operands")
        if op is PrimOp.ADD:
            return VInt(a.value + b.value)
        if op is PrimOp.MUL:
            return VInt(a.value * b.value)
        return VInt(1 if a.value == b.value else 0)
    if op is PrimOp.ETA:
        return VAbs(domains.eta_met_value(args[0], domain))
    abs_args = [domains.met_value_to_abs(v) for v in args]
    if op is PrimOp.AADD:
        return VAbs(domains.abs_add(abs_args[0], abs_args[1], domain))
    if op is PrimOp.AMUL:
        return VAbs(domains.abs_mul(abs_args[0], abs_args[1], domain))
    if op is PrimOp.AEQ:
        return VAbs(domains.abs_eq(abs_args[0], abs_args[1], domain))
    if op is PrimOp.AJOIN:
        return VAbs(domains.join(abs_args[0], abs_args[1]))
    if op is PrimOp.AFILTER_NE0:
        return VAbs(domains.filter_nonzero(abs_args[0], abs_args[1]))
    if op is PrimOp.AFILTER_EQ0:
        return VAbs(domains.filter_zero(abs_args[0], abs_args[1]))
    raise TypeError(f"unknown primitive {op!r}")


def eval_met(e: MetExpr, env: Env, domain: NumericDomain,
             budget: EvalBudget | None = None) -> MetValue:
    """Evaluate ``e`` under ``env``.

    Raises :class:`StuckError` when no rule applies and
    :class:`FuelExhausted` when the budget runs out; evaluation nested
    too deeply for the host stack counts as running out of budget.
    """
    if budget is None:
        budget = EvalBudget()

    def ev(node: MetExpr, env: Env) -> MetValue:
        budget.tick()
        match node:
            case Var(name):
                try:
                    return env[name]
                except KeyError:
                    raise StuckError(f"unbound variable {name!r}") from None
            case IntLit(n):
                return VInt(n)
            case Tuple(a, b):
                return VTuple(ev(a, env), ev(b, env))
            case Proj1(a):
                v = ev(a, env)
                if isinstance(v, VTuple):
                    return v.fst
                if isinstance(v, VAbs):
                    return VAbs(domains.abs_proj(v.value, True))
                raise StuckError("fst of a non-tuple")
            case Proj2(a):
                v = ev(a, env)
                if isinstance(v, VTuple):
                    return v.snd
                if isinstance(v, VAbs):
                    return VAbs(domains.abs_proj(v.value, False))
                raise StuckError("snd of a non-tuple")
            case Construct(tag, args):
                return VConstruct(tag, tuple(ev(a, env) for a in args))
            case Match(scrutinee, branches):
                v = ev(scrutinee, env)
                for pat, body in branches:
                    bindings = match_pattern(pat, v)
                    if bindings is not None:
                        return ev(body, {**env, **bindings}) if bindings else ev(body, env)
                raise StuckError(f"no branch matches {v!r}")
            case Let(name, bound, body):
                return ev(body, {**env, name: ev(bound, env)})
            case LetRecFun(fname, param, fbody, body):
                closure = VClosure(param, fbody, env, self_name=fname)
                return ev(body, {**env, fname: closure})
            case Lambda(param, body):
                return VClosure(param, body, env)
            case App(fun, arg):
                vf = ev(fun, env)
                va = ev(arg, env)
                if not isinstance(vf, VClosure):
                    raise StuckError("application of a non-function")
                return ev(vf.body, _call_env(vf, va))
            case Prim(op, args):
                return eval_prim(op, [ev(a, env) for a in args], domain)
        raise TypeError(f"not a meta-language expression: {node!r}")

    try:
        return ev(e, env)
    except RecursionError:
        raise FuelExhausted("evaluation exceeded the host recursion depth") from None


def _call_env(closure: VClosure, arg: MetValue) -> dict[str, MetValue]:
    env = dict(closure.env)
    env[closure.param] = arg
    if closure.self_name is not None:
        env[closure.self_name] = closure
    return env


def apply_met_function(fn: MetExpr, arg: MetValue, domain: NumericDomain,
                       budget: EvalBudget | None = None) -> MetValue:
    """Evaluate ``fn`` to a closure and apply it to ``arg``.

    This sidesteps literal syntax for the argument, so the argument may
    contain abstract values.
    """
    if budget is None:
        budget = EvalBudget()
    vf = eval_met(fn, {}, domain, budget)
    if not isinstance(vf, VClosure):
        raise StuckError("program did not evaluate to a function")
    budget.tick()
    return eval_met(vf.body, _call_env(vf, arg), domain, budget)
