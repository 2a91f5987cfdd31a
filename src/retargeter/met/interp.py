"""Call-by-value evaluator for the meta-language.

Evaluation is environment-based and pure: results depend only on the
expression, the environment, the numeric domain (which interprets the
abstract primitives), and the step budget.  Every evaluation rule
application costs one budget step, which makes step counts a stable,
deterministic cost metric.

Expressions are closure-compiled (Feeley & Lapalme, "Using closures for
code generation", 1987): each node is translated once into a host
function ``code(env, budget)``, so the dispatch on node classes and on
primitive operators happens at translation time, not on every step.
Each compiled node ticks the budget once, before it evaluates its
children, in the order the evaluation rules name them; step counts, the
step at which the budget runs out and every ``StuckError`` are therefore
the same as for a direct tree walk.

Compiled code is cached on the node it was compiled from, keyed by
domain, so it lives exactly as long as the node.  Only the nodes the
evaluator is entered at are cached: the expression given to
:func:`eval_met` and the body of each applied closure.  A lambda body is
compiled the first time the closure is applied.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .. import domains
from ..domains import NumericDomain
from ..errors import FuelExhausted, StuckError
from .syntax import (
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
Code = Callable[[Env, EvalBudget], MetValue]
Matcher = Callable[[MetValue], "dict[str, MetValue] | None"]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def match_pattern(pat: Pattern, value: MetValue) -> dict[str, MetValue] | None:
    """Bindings produced by matching ``value`` against ``pat``, or None."""
    try:
        matcher = pat._matcher
    except AttributeError:
        matcher = _compile_pattern(pat)
        object.__setattr__(pat, "_matcher", matcher)
    return matcher(value)


def _compile_pattern(pat: Pattern) -> Matcher:
    try:
        compiler = _PATTERN_COMPILERS[type(pat)]
    except KeyError:
        raise TypeError(f"not a pattern: {pat!r}") from None
    return compiler(pat)


def _match_wild(pat: PWild) -> Matcher:
    return lambda value: {}


def _match_var(pat: PVar) -> Matcher:
    name = pat.name
    return lambda value: {name: value}


def _match_int(pat: PInt) -> Matcher:
    n = pat.value
    return lambda value: {} if isinstance(value, VInt) and value.value == n else None


def _match_tuple(pat: PTuple) -> Matcher:
    m1, m2 = _compile_pattern(pat.fst), _compile_pattern(pat.snd)

    def matcher(value):
        if not isinstance(value, VTuple):
            return None
        left = m1(value.fst)
        if left is None:
            return None
        right = m2(value.snd)
        if right is None:
            return None
        return {**left, **right}
    return matcher


def _match_construct(pat: PConstruct) -> Matcher:
    tag = pat.tag
    matchers = tuple(_compile_pattern(p) for p in pat.args)
    arity = len(matchers)

    def matcher(value):
        if not isinstance(value, VConstruct) or value.tag != tag:
            return None
        if len(value.args) != arity:
            return None
        bindings: dict[str, MetValue] = {}
        for m, v in zip(matchers, value.args):
            sub = m(v)
            if sub is None:
                return None
            bindings.update(sub)
        return bindings
    return matcher


_PATTERN_COMPILERS: dict[type, Callable[..., Matcher]] = {
    PWild: _match_wild,
    PVar: _match_var,
    PInt: _match_int,
    PTuple: _match_tuple,
    PConstruct: _match_construct,
}


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _add(a, b, domain):
    if isinstance(a, VInt) and isinstance(b, VInt):
        return VInt(a.value + b.value)
    raise StuckError("+ requires integer operands")


def _mul(a, b, domain):
    if isinstance(a, VInt) and isinstance(b, VInt):
        return VInt(a.value * b.value)
    raise StuckError("* requires integer operands")


def _eq(a, b, domain):
    if isinstance(a, VInt) and isinstance(b, VInt):
        return VInt(1 if a.value == b.value else 0)
    raise StuckError("= requires integer operands")


# Domain functions are looked up through the ``domains`` module on every
# call rather than captured, so rebinding a module attribute (as a tracer
# does) takes effect in code that is already compiled.


def _eta(a, domain):
    return VAbs(domains.eta_met_value(a, domain))


def _aadd(a, b, domain):
    return VAbs(domains.abs_add(domains.met_value_to_abs(a), domains.met_value_to_abs(b),
                                domain))


def _amul(a, b, domain):
    return VAbs(domains.abs_mul(domains.met_value_to_abs(a), domains.met_value_to_abs(b),
                                domain))


def _aeq(a, b, domain):
    return VAbs(domains.abs_eq(domains.met_value_to_abs(a), domains.met_value_to_abs(b),
                               domain))


def _ajoin(a, b, domain):
    return VAbs(domains.join(domains.met_value_to_abs(a), domains.met_value_to_abs(b)))


def _afilter_ne0(a, b, domain):
    return VAbs(domains.filter_nonzero(domains.met_value_to_abs(a),
                                       domains.met_value_to_abs(b)))


def _afilter_eq0(a, b, domain):
    return VAbs(domains.filter_zero(domains.met_value_to_abs(a), domains.met_value_to_abs(b)))


# The one implementation of each primitive: ``PRIMITIVES[op](*args, domain)``.
PRIMITIVES: dict[PrimOp, Callable[..., MetValue]] = {
    PrimOp.ADD: _add,
    PrimOp.MUL: _mul,
    PrimOp.EQ: _eq,
    PrimOp.ETA: _eta,
    PrimOp.AADD: _aadd,
    PrimOp.AMUL: _amul,
    PrimOp.AEQ: _aeq,
    PrimOp.AJOIN: _ajoin,
    PrimOp.AFILTER_NE0: _afilter_ne0,
    PrimOp.AFILTER_EQ0: _afilter_eq0,
}


def eval_prim(op: PrimOp, args: list[MetValue], domain: NumericDomain) -> MetValue:
    """Apply a primitive operator to already-evaluated arguments."""
    try:
        implementation = PRIMITIVES[op]
    except KeyError:
        raise TypeError(f"unknown primitive {op!r}") from None
    return implementation(*args, domain)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def compiled(node: MetExpr, domain: NumericDomain) -> Code:
    """The compiled form of ``node`` under ``domain``, compiled on first use
    and cached on the node."""
    try:
        return node._compiled[domain]
    except KeyError:
        code = node._compiled[domain] = _COMPILERS[type(node)](node, domain)
    except AttributeError:
        code = _COMPILERS[type(node)](node, domain)
        object.__setattr__(node, "_compiled", {domain: code})
    return code


class _Compilers(dict):
    """Node class -> compiler.  Compilers index this table themselves
    rather than call a dispatching helper, so compiling nests one host
    frame per tree level, no deeper than evaluating."""

    def __missing__(self, cls):
        raise TypeError(f"not a meta-language expression: {cls.__name__}")


def _compile_var(node: Var, domain) -> Code:
    name = node.name

    def code(env, budget):
        budget.tick()
        try:
            return env[name]
        except KeyError:
            raise StuckError(f"unbound variable {name!r}") from None
    return code


def _compile_int(node: IntLit, domain) -> Code:
    value = VInt(node.value)

    def code(env, budget):
        budget.tick()
        return value
    return code


def _compile_tuple(node: Tuple, domain) -> Code:
    fst = _COMPILERS[type(node.fst)](node.fst, domain)
    snd = _COMPILERS[type(node.snd)](node.snd, domain)

    def code(env, budget):
        budget.tick()
        return VTuple(fst(env, budget), snd(env, budget))
    return code


def _compile_proj1(node: Proj1, domain) -> Code:
    arg = _COMPILERS[type(node.arg)](node.arg, domain)

    def code(env, budget):
        budget.tick()
        v = arg(env, budget)
        if isinstance(v, VTuple):
            return v.fst
        if isinstance(v, VAbs):
            return VAbs(domains.abs_proj1(v.value))
        raise StuckError("fst of a non-tuple")
    return code


def _compile_proj2(node: Proj2, domain) -> Code:
    arg = _COMPILERS[type(node.arg)](node.arg, domain)

    def code(env, budget):
        budget.tick()
        v = arg(env, budget)
        if isinstance(v, VTuple):
            return v.snd
        if isinstance(v, VAbs):
            return VAbs(domains.abs_proj2(v.value))
        raise StuckError("snd of a non-tuple")
    return code


def _compile_construct(node: Construct, domain) -> Code:
    tag = node.tag
    args = tuple(_COMPILERS[type(a)](a, domain) for a in node.args)

    def code(env, budget):
        budget.tick()
        return VConstruct(tag, tuple([a(env, budget) for a in args]))
    return code


def _compile_match(node: Match, domain) -> Code:
    scrutinee = _COMPILERS[type(node.scrutinee)](node.scrutinee, domain)
    branches = [(pat, _compile_pattern(pat), _COMPILERS[type(body)](body, domain))
                for pat, body in node.branches]

    # A constructor pattern matches only its own tag, so each tag is tried
    # against just the branches that could match it, still in order.
    def candidates(tag):
        return tuple((matcher, body) for pat, matcher, body in branches
                     if not isinstance(pat, PConstruct) or pat.tag == tag)
    by_tag = {pat.tag: candidates(pat.tag) for pat, _, _ in branches
              if isinstance(pat, PConstruct)}
    others = candidates(None)

    def code(env, budget):
        budget.tick()
        v = scrutinee(env, budget)
        for matcher, body in by_tag.get(v.tag, others) if isinstance(v, VConstruct) else others:
            bindings = matcher(v)
            if bindings is not None:
                return body({**env, **bindings}, budget) if bindings else body(env, budget)
        raise StuckError(f"no branch matches {v!r}")
    return code


def _compile_let(node: Let, domain) -> Code:
    name = node.name
    bound = _COMPILERS[type(node.bound)](node.bound, domain)
    body = _COMPILERS[type(node.body)](node.body, domain)

    def code(env, budget):
        budget.tick()
        return body({**env, name: bound(env, budget)}, budget)
    return code


def _compile_letrec(node: LetRecFun, domain) -> Code:
    fun_name, param, fun_body = node.fun_name, node.param, node.fun_body
    body = _COMPILERS[type(node.body)](node.body, domain)

    def code(env, budget):
        budget.tick()
        closure = VClosure(param, fun_body, env, self_name=fun_name)
        return body({**env, fun_name: closure}, budget)
    return code


def _compile_lambda(node: Lambda, domain) -> Code:
    param, fun_body = node.param, node.body

    def code(env, budget):
        budget.tick()
        return VClosure(param, fun_body, env)
    return code


def _compile_app(node: App, domain) -> Code:
    fun = _COMPILERS[type(node.fun)](node.fun, domain)
    arg = _COMPILERS[type(node.arg)](node.arg, domain)

    def code(env, budget):
        budget.tick()
        vf = fun(env, budget)
        va = arg(env, budget)
        if not isinstance(vf, VClosure):
            raise StuckError("application of a non-function")
        return compiled(vf.body, domain)(_call_env(vf, va), budget)
    return code


def _compile_prim(node: Prim, domain) -> Code:
    try:
        implementation = PRIMITIVES[node.op]
    except KeyError:
        raise TypeError(f"unknown primitive {node.op!r}") from None
    args = tuple(_COMPILERS[type(a)](a, domain) for a in node.args)
    if len(args) == 1:
        (a,) = args

        def code(env, budget):
            budget.tick()
            return implementation(a(env, budget), domain)
    else:
        a, b = args

        def code(env, budget):
            budget.tick()
            return implementation(a(env, budget), b(env, budget), domain)
    return code


_COMPILERS = _Compilers({
    Var: _compile_var,
    IntLit: _compile_int,
    Tuple: _compile_tuple,
    Proj1: _compile_proj1,
    Proj2: _compile_proj2,
    Construct: _compile_construct,
    Match: _compile_match,
    Let: _compile_let,
    LetRecFun: _compile_letrec,
    Lambda: _compile_lambda,
    App: _compile_app,
    Prim: _compile_prim,
})


def eval_met(e: MetExpr, env: Env, domain: NumericDomain,
             budget: EvalBudget | None = None) -> MetValue:
    """Evaluate ``e`` under ``env``.

    Raises :class:`StuckError` when no rule applies and
    :class:`FuelExhausted` when the budget runs out; an expression nested
    too deeply for the host stack, to compile or to evaluate, counts as
    running out of budget.
    """
    if budget is None:
        budget = EvalBudget()
    try:
        return compiled(e, domain)(env, budget)
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
