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
Each compiled node spends one step, before it evaluates its children, in
the order the evaluation rules name them; it compares the count with the
fuel inline and calls ``EvalBudget.tick`` only to raise, so the message
is worded in one place.

Node sequences on the hot paths of residuals and of meta-level analysis
are fused into superoperators (Proebsting, "Optimizing an ANSI C
interpreter with superoperators", 1995):

* A path of k projections over a variable, such as ``snd (fst (fst x))``,
  is one closure.  It walks the path, calls ``domains.abs_proj`` once per
  level from the first abstract value on, boxes the result once, and
  spends its k + 1 steps at once.  When fewer than k + 1 steps are left,
  the variable is unbound, or the path meets a value that is neither a
  tuple nor abstract, it runs the node-by-node code instead, compiled on
  first need, which spends the steps one at a time and raises what the
  tree walk raises.  ``fst x`` and ``snd x`` have no path to walk.
* ``eta`` of an integer literal is computed once, when its node is
  compiled, and spends its two steps at once, or one at a time when fewer
  than two are left.
* An application of a variable, ``f e``, is one closure.  It spends the
  ``App`` and ``Var`` steps at once (one at a time when fewer than two are
  left), looks ``f`` up, evaluates the argument before it tests for a
  closure, and builds the call's environment and reads the body's cached
  code itself.
* A ``match`` tries, in order, only the branches that :func:`tag_table`
  finds can match the scrutinee's tag, and binds each with its pattern's
  :func:`binder`, compiled once and cached on the pattern.  A constructor
  over variables and wildcards copies the environment once and stores
  the bindings; later bindings win, and a branch that binds nothing runs
  in the environment it was given.  The specializer uses the same table
  and binders for a ``match`` on a known value.

Step counts, the step at which the budget runs out and every
``StuckError`` are therefore the same as for a direct tree walk.  A
tracer that rebinds ``domains`` functions sees every domain call made
while evaluating except two: ``eta`` of a literal, made once at compile
time, and the unboxing of an abstract primitive's ``VAbs`` argument,
which reads the value inline.

Each primitive operator has one implementation, in :data:`PRIMITIVES`;
compiled ``Prim`` nodes call it, and so does the specializer when it
folds concrete arithmetic on known operands.

Compiled code is cached on the node it was compiled from, keyed by
domain, so it lives exactly as long as the node.  Only the nodes the
evaluator is entered at are cached: the expression given to
:func:`eval_met` and the body of each applied closure.  A lambda body is
compiled the first time the closure is applied.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Mapping, TypeVar

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
Binder = Callable[[MetValue, Env], "Env | None"]
T = TypeVar("T")


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def binder(pat: Pattern) -> Binder:
    """``bind(value, env)``: ``env`` extended with what ``pat`` binds in
    ``value``, or None when ``pat`` does not match.  Later bindings win, as
    in ``{**env, **bindings}``; a pattern that binds nothing gives ``env``
    itself, and ``env`` is never written to.  Compiled once and cached on
    the pattern node.

    Each binder checks its own tag, arity, integer or tuple shape, so it is
    correct nested or on its own.  A constructor over variables and
    wildcards copies ``env`` once and stores the arguments."""
    try:
        return pat._binder
    except AttributeError:
        bind = _compile_binder(pat)
        object.__setattr__(pat, "_binder", bind)
        return bind


def _compile_binder(pat: Pattern) -> Binder:
    t = type(pat)
    if t is PVar:
        name = pat.name
        return lambda value, env: {**env, name: value}
    if t is PWild:
        return lambda value, env: env
    if t is PInt:
        n = pat.value
        return lambda value, env: env if type(value) is VInt and value.value == n else None
    if t is PTuple:
        left, right = binder(pat.fst), binder(pat.snd)

        def bind(value, env):
            if type(value) is not VTuple:
                return None
            env = left(value.fst, env)
            return None if env is None else right(value.snd, env)
        return bind
    if t is not PConstruct:
        raise TypeError(f"not a pattern: {pat!r}")
    tag, arity = pat.tag, len(pat.args)
    if all(type(p) is PVar or type(p) is PWild for p in pat.args):
        slots = tuple((i, p.name) for i, p in enumerate(pat.args) if type(p) is PVar)
        if not slots:
            return lambda value, env: (
                env if type(value) is VConstruct and value.tag == tag
                and len(value.args) == arity else None)

        def bind(value, env):
            if type(value) is not VConstruct or value.tag != tag or len(value.args) != arity:
                return None
            args, inner = value.args, dict(env)
            for i, name in slots:
                inner[name] = args[i]
            return inner
        return bind
    binders = tuple(binder(p) for p in pat.args)

    def bind(value, env):
        if type(value) is not VConstruct or value.tag != tag or len(value.args) != arity:
            return None
        for b, v in zip(binders, value.args):
            env = b(v, env)
            if env is None:
                return None
        return env
    return bind


def tag_table(pairs: Iterable[tuple[Pattern, T]]
              ) -> tuple[dict[str, tuple[T, ...]], tuple[T, ...]]:
    """``(by_tag, others)`` for the branches of a ``match``, given as
    ``(pattern, item)`` pairs in order.  A constructor pattern matches only
    its own tag, so ``by_tag[tag]`` holds the items of the branches that can
    match a constructor of ``tag``, and ``others`` those of the branches
    that can match any other value, both still in order."""
    pairs = tuple(pairs)

    def candidates(tag):
        return tuple(item for pat, item in pairs
                     if type(pat) is not PConstruct or pat.tag == tag)
    by_tag = {pat.tag: candidates(pat.tag) for pat, _ in pairs if type(pat) is PConstruct}
    return by_tag, candidates(None)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _int_rule(symbol: str, fn) -> Callable[..., MetValue]:
    """The concrete integer operator ``symbol``, computing with ``fn``."""
    def rule(a, b, domain):
        if isinstance(a, VInt) and isinstance(b, VInt):
            return VInt(fn(a.value, b.value))
        raise StuckError(f"{symbol} requires integer operands")
    return rule


# Domain functions are looked up through the ``domains`` module on every
# call rather than captured, so rebinding a module attribute (as a tracer
# does) takes effect in code that is already compiled.


def _eta(a, domain):
    return VAbs(domains.eta_met_value(a, domain))


# An abstract primitive reads an abstract argument's value inline, saving
# a call per argument on every abstract step; only a tuple of abstract
# values goes through ``met_value_to_abs``.


def _aadd(a, b, domain):
    return VAbs(domains.abs_add(
        a.value if type(a) is VAbs else domains.met_value_to_abs(a),
        b.value if type(b) is VAbs else domains.met_value_to_abs(b),
        domain))


def _amul(a, b, domain):
    return VAbs(domains.abs_mul(
        a.value if type(a) is VAbs else domains.met_value_to_abs(a),
        b.value if type(b) is VAbs else domains.met_value_to_abs(b),
        domain))


def _aeq(a, b, domain):
    return VAbs(domains.abs_eq(
        a.value if type(a) is VAbs else domains.met_value_to_abs(a),
        b.value if type(b) is VAbs else domains.met_value_to_abs(b),
        domain))


def _ajoin(a, b, domain):
    return VAbs(domains.join(
        a.value if type(a) is VAbs else domains.met_value_to_abs(a),
        b.value if type(b) is VAbs else domains.met_value_to_abs(b)))


def _afilter_ne0(a, b, domain):
    return VAbs(domains.filter_nonzero(
        a.value if type(a) is VAbs else domains.met_value_to_abs(a),
        b.value if type(b) is VAbs else domains.met_value_to_abs(b)))


def _afilter_eq0(a, b, domain):
    return VAbs(domains.filter_zero(
        a.value if type(a) is VAbs else domains.met_value_to_abs(a),
        b.value if type(b) is VAbs else domains.met_value_to_abs(b)))


# The one implementation of each primitive: ``PRIMITIVES[op](*args, domain)``.
PRIMITIVES: dict[PrimOp, Callable[..., MetValue]] = {
    PrimOp.ADD: _int_rule("+", operator.add),
    PrimOp.MUL: _int_rule("*", operator.mul),
    PrimOp.EQ: _int_rule("=", lambda x, y: 1 if x == y else 0),
    PrimOp.ETA: _eta,
    PrimOp.AADD: _aadd,
    PrimOp.AMUL: _amul,
    PrimOp.AEQ: _aeq,
    PrimOp.AJOIN: _ajoin,
    PrimOp.AFILTER_NE0: _afilter_ne0,
    PrimOp.AFILTER_EQ0: _afilter_eq0,
}


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
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        try:
            return env[name]
        except KeyError:
            raise StuckError(f"unbound variable {name!r}") from None
    return code


def _compile_int(node: IntLit, domain) -> Code:
    value = VInt(node.value)

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        return value
    return code


def _compile_tuple(node: Tuple, domain) -> Code:
    fst = _COMPILERS[type(node.fst)](node.fst, domain)
    snd = _COMPILERS[type(node.snd)](node.snd, domain)

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        return VTuple(fst(env, budget), snd(env, budget))
    return code


def _compile_proj(node: Proj1 | Proj2, domain) -> Code:
    """A path of projections over a variable, such as ``snd (fst (fst x))``,
    compiles to one superoperator; a chain over any other node compiles
    node by node."""
    path = []                       # True for fst, outermost first
    base = node
    while type(base) is Proj1 or type(base) is Proj2:
        path.append(type(base) is Proj1)
        base = base.arg
    if type(base) is not Var:
        return _compile_proj_node(node, domain)
    name = base.name
    path = tuple(reversed(path))    # innermost first, the order it is walked in
    cost = len(path) + 1            # a step for each projection and the variable
    slow = None

    def fallback(env, budget):
        # The node-by-node code, compiled on first need: it spends the
        # steps one at a time and raises what the path met.
        nonlocal slow
        if slow is None:
            slow = _compile_proj_node(node, domain)
        return slow(env, budget)

    if cost == 2:
        # One projection, ``fst x`` or ``snd x``: no path to walk.
        first = path[0]

        def code(env, budget):
            steps = budget.steps_used + 2
            if steps > budget.fuel:
                return fallback(env, budget)
            try:
                v = env[name]
            except KeyError:
                return fallback(env, budget)
            t = type(v)
            if t is VTuple:
                budget.steps_used = steps
                return v.fst if first else v.snd
            if t is VAbs:
                budget.steps_used = steps
                return VAbs(domains.abs_proj(v.value, first))
            return fallback(env, budget)
        return code

    def code(env, budget):
        steps = budget.steps_used + cost
        if steps > budget.fuel:
            return fallback(env, budget)
        try:
            v = env[name]
        except KeyError:
            return fallback(env, budget)
        for i, first in enumerate(path):
            t = type(v)
            if t is VTuple:
                v = v.fst if first else v.snd
            elif t is VAbs:
                # Abstract from here on: one abs_proj per level, one box.
                a = v.value
                for first in path[i:]:
                    a = domains.abs_proj(a, first)
                v = VAbs(a)
                break
            else:
                return fallback(env, budget)
        budget.steps_used = steps
        return v
    return code


def _compile_proj_node(node: Proj1 | Proj2, domain) -> Code:
    """One projection node, nesting one host frame per level of a chain."""
    first = type(node) is Proj1
    stuck = "fst of a non-tuple" if first else "snd of a non-tuple"
    a = node.arg
    if type(a) is Proj1 or type(a) is Proj2:
        arg = _compile_proj_node(a, domain)
    else:
        arg = _COMPILERS[type(a)](a, domain)

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        v = arg(env, budget)
        if isinstance(v, VTuple):
            return v.fst if first else v.snd
        if isinstance(v, VAbs):
            return VAbs(domains.abs_proj(v.value, first))
        raise StuckError(stuck)
    return code


def _compile_construct(node: Construct, domain) -> Code:
    tag = node.tag
    args = tuple(_COMPILERS[type(a)](a, domain) for a in node.args)

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        return VConstruct(tag, tuple([a(env, budget) for a in args]))
    return code


def _compile_match(node: Match, domain) -> Code:
    scrutinee = _COMPILERS[type(node.scrutinee)](node.scrutinee, domain)
    by_tag, others = tag_table((pat, (binder(pat), _COMPILERS[type(body)](body, domain)))
                               for pat, body in node.branches)

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        v = scrutinee(env, budget)
        for bind, body in by_tag.get(v.tag, others) if isinstance(v, VConstruct) else others:
            inner = bind(v, env)
            if inner is not None:
                return body(inner, budget)
        raise StuckError(f"no branch matches {v!r}")
    return code


def _compile_let(node: Let, domain) -> Code:
    name = node.name
    bound = _COMPILERS[type(node.bound)](node.bound, domain)
    body = _COMPILERS[type(node.body)](node.body, domain)

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        return body({**env, name: bound(env, budget)}, budget)
    return code


def _compile_letrec(node: LetRecFun, domain) -> Code:
    fun_name, param, fun_body = node.fun_name, node.param, node.fun_body
    body = _COMPILERS[type(node.body)](node.body, domain)

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        closure = VClosure(param, fun_body, env, self_name=fun_name)
        return body({**env, fun_name: closure}, budget)
    return code


def _compile_lambda(node: Lambda, domain) -> Code:
    param, fun_body = node.param, node.body

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        return VClosure(param, fun_body, env)
    return code


def _compile_app(node: App, domain) -> Code:
    if type(node.fun) is Var:
        return _compile_call(node.fun.name, _COMPILERS[type(node.arg)](node.arg, domain), domain)
    fun = _COMPILERS[type(node.fun)](node.fun, domain)
    arg = _COMPILERS[type(node.arg)](node.arg, domain)

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        vf = fun(env, budget)
        va = arg(env, budget)
        if not isinstance(vf, VClosure):
            raise StuckError("application of a non-function")
        return compiled(vf.body, domain)(_call_env(vf, va), budget)
    return code


def _compile_call(name: str, arg: Code, domain) -> Code:
    """``f e`` for a variable ``f``: the application and the variable as
    one closure, which builds the call's environment and finds the body's
    compiled code itself."""
    def code(env, budget):
        steps = budget.steps_used + 2   # the App node and its variable
        if steps > budget.fuel:
            # At most one step is left: spend it, then raise where the
            # per-node code would.
            budget.tick()
            budget.tick()
        budget.steps_used = steps
        try:
            vf = env[name]
        except KeyError:
            raise StuckError(f"unbound variable {name!r}") from None
        va = arg(env, budget)
        if not isinstance(vf, VClosure):
            raise StuckError("application of a non-function")
        inner = dict(vf.env)
        inner[vf.param] = va
        if vf.self_name is not None:
            inner[vf.self_name] = vf
        body = vf.body
        try:
            run = body._compiled[domain]
        except (AttributeError, KeyError):
            run = compiled(body, domain)
        return run(inner, budget)
    return code


def _compile_prim(node: Prim, domain) -> Code:
    try:
        implementation = PRIMITIVES[node.op]
    except KeyError:
        raise TypeError(f"unknown primitive {node.op!r}") from None
    if node.op is PrimOp.ETA and len(node.args) == 1 and type(node.args[0]) is IntLit:
        # eta of a literal is one value under one domain: a constant.
        value = implementation(VInt(node.args[0].value), domain)

        def code(env, budget):
            steps = budget.steps_used + 2   # the Prim node and its literal
            if steps > budget.fuel:
                # At most one step is left: spend it, then raise where the
                # per-node code would.
                budget.tick()
                budget.tick()
            budget.steps_used = steps
            return value
        return code
    args = tuple(_COMPILERS[type(a)](a, domain) for a in node.args)
    if len(args) == 1:
        (a,) = args

        def code(env, budget):
            if budget.steps_used >= budget.fuel:
                budget.tick()
            budget.steps_used += 1
            return implementation(a(env, budget), domain)
    else:
        a, b = args

        def code(env, budget):
            if budget.steps_used >= budget.fuel:
                budget.tick()
            budget.steps_used += 1
            return implementation(a(env, budget), b(env, budget), domain)
    return code


_COMPILERS = _Compilers({
    Var: _compile_var,
    IntLit: _compile_int,
    Tuple: _compile_tuple,
    Proj1: _compile_proj,
    Proj2: _compile_proj,
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
