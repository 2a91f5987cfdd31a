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

* A chain of k projections over any expression, such as
  ``snd (fst (fst x))`` or ``fst (f (x, y))``, is one closure, which nests
  one host frame at any length.  Every projection's step comes before its
  argument runs, so it spends its k steps at once (k + 1 over a variable,
  which it reads inline), runs its base, walks the tuples on the path and
  hands the rest of the path, from the first abstract value on, to one
  ``domains.abs_proj_path`` call, and boxes the result once.  It has no
  fallback: when fewer steps are left it spends them and raises, as the
  tree walk does, and it is stuck at the level that meets a value that is
  neither a tuple nor abstract.
* ``eta`` of an integer literal is computed once, when its node is
  compiled, and spends its two steps at once.
* An application ``f (a, b)`` of a variable to a pair of *leaves*, each a
  variable or a projection path over one (meta-level analysis's
  ``evalabs (e1, snd ev)``), is one closure.  It spends the ``App``,
  ``Var``, ``Tuple`` and leaf steps at once, reads the leaves inline,
  builds the pair and the call's environment, and enters the body's
  cached code.  An inline leaf read follows tuples only; abstract
  projection and its boxing stay in the projection chain's closure.
* The pair call is memoized when the budget carries a memo
  (``EvalBudget.memo``, a dict), as "Abstracting Definitional
  Interpreters" (Darais et al., 2017) caches configurations.  The key is
  the identity of the closure and of both argument values; an entry holds
  those three objects, so no id is reused while it lives, with the result
  and the steps the body took.  A hit spends the call's own steps and the
  body's at once and returns the result, when all of them fit in the
  fuel; otherwise the call runs as a miss.  Only results are stored: an
  error ends the evaluation.  Each entry is made by a miss, which spends
  at least five steps, so a memo holds at most one entry per five steps.
  A memo pays only where argument objects recur, so its owner decides:
  ``analyzer.analyze_meta_target``, whose interpreter's equal subtrees
  are one object, gives each analysis a fresh memo and drops it when the
  analysis returns, and each distinct ``evalabs`` call then runs once.
  Every other evaluation has none, and its pair calls read one attribute
  more; an embedded source program's equal subtrees are distinct
  objects, on which a memo found no hit and made ``analyze_meta`` 13%
  slower.
* A ``match`` tries, in order, only the branches that can match the
  scrutinee's tag, and binds each with its pattern's :func:`binder`,
  compiled once and cached on the pattern; later bindings win, and a
  branch that binds nothing runs in the environment it was given.
* A ``match`` on a leaf (``match fst ev with``) reads it inline, over
  tuples only, and spends its steps with the ``Match`` step.  Where a
  tag's first candidate branch is a constructor over variables and
  wildcards, a value of that tag and arity binds inline: it copies the
  environment once and stores the bindings, without calling the binder.
* An abstract primitive (``aadd``, ``amul``, ``aeq``, ``ajoin``,
  ``fne0``, ``feq0``) computes with unboxed operands (Peyton Jones &
  Launchbury, "Unboxed values as first class citizens", 1991) and calls
  its domain function itself.  An operand that is an abstract primitive,
  ``eta`` of a literal or a projection chain returns its abstract value
  without a ``VAbs`` box; any other operand, a variable included, runs its
  own code.  The primitive runs
  both operands, then reads each as an abstract value (a ``VAbs``'s value,
  or ``domains.met_value_to_abs`` of any other meta value), so an operand
  that is not abstract is stuck only after the other has run, as in the
  tree walk.  It boxes its result only where a meta value is needed, that
  is, anywhere but as another abstract primitive's operand.
* So is an abstract primitive over two *direct* operands, each ``eta`` of
  a literal, a variable or a projection path over one (a residual's
  ``aeq(fst snd fst iabs, eta(0))``).  It spends the steps of the
  primitive and its operands at once and reads both inline when both
  variables hold abstract values.
* Boxing goes through ``VAbs``'s slot setter, which runs no host frame.

Which applications are pair calls (:func:`pair_call`) and each match's
leaf, candidate branches and inline bindings (:func:`match_plan`) are
decided at compile time, by one function each, which the specializer
calls too.

Every other fused form runs only when its whole cost fits in the fuel
and every read succeeds.  Otherwise the node-by-node code, compiled with
it, spends the steps one at a time and raises what the tree walk
raises.  An inline leaf read calls no domain function, and a fused
primitive calls ``abs_proj_path`` only once its fuel check and its reads
have succeeded, so the fallback repeats no domain call.
Step counts, the step at which the budget runs out and every
``StuckError`` are therefore the same as for a direct tree walk.  A
tracer that rebinds ``domains`` functions sees every domain call made
while evaluating, with four differences from the tree walk: ``eta`` of
a literal is computed once, at compile time; an abstract primitive reads
a ``VAbs`` operand's value inline, without ``met_value_to_abs``; a
projection chain asks for its levels on an abstract value in one
``abs_proj_path`` call, where the tree walk calls ``abs_proj`` once per
level; and a memo hit makes no domain call at all.  A hit also nests no
host frame, so an evaluation whose repeated calls would have gone
deeper than the host stack allows may now finish.

Each primitive operator has one implementation.  ``_ABSTRACT`` names the
domain function of each abstract operator, once, and compiled code calls
that function directly; :data:`PRIMITIVES` holds every other operator's.
Compiled concrete ``Prim`` nodes call their implementation, and so does
the specializer when it folds concrete arithmetic on known operands.

Compiled code is cached on the node it was compiled from, keyed by
domain, in the ``_compiled`` slot that every ``MetExpr`` has, so it
lives exactly as long as the node; a pattern's binder is cached in its
``_binder`` slot.  Only the nodes the evaluator is entered at are
cached: the expression given to :func:`eval_met` and the body of each
applied closure.  A lambda body is
compiled the first time the closure is applied.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, TypeVar

from .. import domains
from ..domains import AbsValue, NumericDomain
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
    correct nested or on its own."""
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
_DOMAIN_FUNCTIONS = vars(domains)


def _eta(a, domain):
    return VAbs(domains.eta_met_value(a, domain))


# Abstract primitive -> the name of the ``domains`` function that computes
# it, and whether that function takes the numeric domain.
_ABSTRACT: dict[PrimOp, tuple[str, bool]] = {
    PrimOp.AADD: ("abs_add", True),
    PrimOp.AMUL: ("abs_mul", True),
    PrimOp.AEQ: ("abs_eq", True),
    PrimOp.AJOIN: ("join", False),
    PrimOp.AFILTER_NE0: ("filter_nonzero", False),
    PrimOp.AFILTER_EQ0: ("filter_zero", False),
}


# The implementation of each primitive but the abstract ones:
# ``PRIMITIVES[op](*args, domain)``.  Compiled code computes an abstract
# primitive itself, with the function ``_ABSTRACT`` names.
PRIMITIVES: dict[PrimOp, Callable[..., MetValue]] = {
    PrimOp.ADD: _int_rule("+", operator.add),
    PrimOp.MUL: _int_rule("*", operator.mul),
    PrimOp.EQ: _int_rule("=", lambda x, y: 1 if x == y else 0),
    PrimOp.ETA: _eta,
}

# Boxing through the slot setters runs no host frame.
_new = object.__new__
_set_abs = VAbs.value.__set__
_set_fst, _set_snd = VTuple.fst.__set__, VTuple.snd.__set__


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
    rather than call a dispatching helper, so compiling nests at most one
    host frame per tree level, no deeper than evaluating.  The specializer
    builds its own table from this class."""

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


def chain(node: MetExpr) -> tuple[MetExpr, tuple[bool, ...]]:
    """``(base, path)`` for a chain of projections over ``base``: ``path``
    lists the projections innermost first, True for fst, and is empty when
    ``node`` is not a projection."""
    path = []                       # outermost first
    while type(node) is Proj1 or type(node) is Proj2:
        path.append(type(node) is Proj1)
        node = node.arg
    return node, tuple(reversed(path))


def _leaf(node: MetExpr) -> tuple[str, tuple[bool, ...]] | None:
    """``(name, path)`` for a variable, or a projection path over one, as
    :func:`chain` gives it; reading the leaf costs ``len(path) + 1``
    steps.  None for any other node."""
    base, path = chain(node)
    return (base.name, path) if type(base) is Var else None


def match_plan(scrutinee: MetExpr, branches: tuple[tuple[Pattern, T], ...]):
    """``((name, path), (by_tag, others), inline)``: the compile-time plan
    of a ``match`` on ``scrutinee`` with ``branches``, ``(pattern, item)``
    pairs in order.  ``(name, path)`` is the scrutinee as a leaf
    (:func:`_leaf`), or ``(None, ())``.  A constructor pattern matches
    only its own tag, so ``by_tag[tag]`` holds the branches that can match
    a constructor of ``tag``, and ``others`` those that can match any
    other value, both in order.  ``inline[tag]`` is ``(arity, slots,
    item)`` where the tag's first candidate is a constructor over
    variables and wildcards: a value of that tag and arity binds by
    storing ``args[i]`` as ``name`` for each ``(i, name)`` in ``slots``."""
    def candidates(tag):
        return tuple((pat, item) for pat, item in branches
                     if type(pat) is not PConstruct or pat.tag == tag)
    by_tag = {pat.tag: candidates(pat.tag) for pat, _ in branches if type(pat) is PConstruct}
    inline = {}
    for tag, ((pat, item), *_) in by_tag.items():
        if type(pat) is PConstruct and all(type(p) is PVar or type(p) is PWild
                                           for p in pat.args):
            slots = tuple((i, p.name) for i, p in enumerate(pat.args) if type(p) is PVar)
            inline[tag] = (len(pat.args), slots, item)
    return _leaf(scrutinee) or (None, ()), (by_tag, candidates(None)), inline


def pair_call(node: App):
    """``(f, (a, apath), (b, bpath))`` for an application ``f (a, b)`` of a
    variable to a pair of leaves: its name and each leaf as :func:`_leaf`
    gives it.  None for any other application."""
    fun, arg = node.fun, node.arg
    if type(fun) is Var and type(arg) is Tuple:
        a, b = _leaf(arg.fst), _leaf(arg.snd)
        if a is not None and b is not None:
            return fun.name, a, b
    return None


def _compile_proj(node: Proj1 | Proj2, domain, box: bool = True) -> Code:
    """A chain of k projections over any base, such as ``snd (fst (fst x))``
    or ``fst (f (x, y))``, as one closure, with no host frame per level.
    Every projection's step comes before its argument runs, so the closure
    spends the k steps, and the variable's if the base is one, at once,
    then reads or runs the base.  It walks the tuples on the path, makes
    one ``domains.abs_proj_path`` call for the rest from the first abstract
    value on, and returns an abstract result boxed if ``box`` and unboxed
    otherwise; any other result is the meta value read.  A level that
    meets any other value is stuck."""
    base, path = chain(node)
    name = base.name if type(base) is Var else None
    run = None if name is not None else _COMPILERS[type(base)](base, domain)
    cost = len(path) + (name is not None)

    def code(env, budget):
        steps = budget.steps_used + cost
        if steps > budget.fuel:
            # Spend what is left and raise, as the tree walk does.
            budget.steps_used = budget.fuel
            budget.tick()
        budget.steps_used = steps
        if run is None:
            try:
                v = env[name]
            except KeyError:
                raise StuckError(f"unbound variable {name!r}") from None
        else:
            v = run(env, budget)
        if type(v) is VAbs:
            a = domains.abs_proj_path(v.value, path)
        else:
            i = 0                   # counted by hand: cheaper than enumerate
            for first in path:
                t = type(v)
                if t is VTuple:
                    v = v.fst if first else v.snd
                elif t is VAbs:
                    # Abstract from here on: one call for the rest.
                    a = domains.abs_proj_path(v.value, path[i:])
                    break
                else:
                    raise StuckError("fst of a non-tuple" if first else "snd of a non-tuple")
                i += 1
            else:
                return v if box or type(v) is not VAbs else v.value
        if box:
            v = _new(VAbs)
            _set_abs(v, a)
            return v
        return a
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
    branches = tuple((pat, _COMPILERS[type(body)](body, domain)) for pat, body in node.branches)
    (name, path), (by_tag, others), inline = match_plan(node.scrutinee, branches)
    cost = len(path) + 2            # the Match node and the leaf

    def code(env, budget):
        v = env.get(name)
        for first in path:
            if type(v) is not VTuple:
                v = None
                break
            v = v.fst if first else v.snd
        steps = budget.steps_used + cost
        if v is not None and steps <= budget.fuel:
            budget.steps_used = steps
        else:
            if budget.steps_used >= budget.fuel:
                budget.tick()
            budget.steps_used += 1
            v = scrutinee(env, budget)
        if type(v) is VConstruct:
            arity, slots, body = inline.get(v.tag, (-1, (), None))   # -1: no arity
            args = v.args
            if len(args) == arity:
                if not slots:
                    return body(env, budget)
                inner = dict(env)
                for i, n in slots:
                    inner[n] = args[i]
                return body(inner, budget)
        for pat, body in by_tag.get(v.tag, others) if type(v) is VConstruct else others:
            inner = binder(pat)(v, env)
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
    """An application.  ``f (a, b)`` for a variable ``f`` and leaves ``a``
    and ``b``, as :func:`pair_call` plans it, is one closure for the
    application, the variable, the pair and its leaves, which falls back
    on the node-by-node code."""
    fun = _COMPILERS[type(node.fun)](node.fun, domain)
    arg = _COMPILERS[type(node.arg)](node.arg, domain)

    def slow(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        vf = fun(env, budget)
        va = arg(env, budget)
        if not isinstance(vf, VClosure):
            raise StuckError("application of a non-function")
        return compiled(vf.body, domain)(_call_env(vf, va), budget)
    plan = pair_call(node)
    if plan is None:
        return slow
    name, (an, apath), (bn, bpath) = plan
    cost = len(apath) + len(bpath) + 5      # App, Var, Tuple and the two leaves

    def code(env, budget):
        vf, va, vb = env.get(name), env.get(an), env.get(bn)
        for first in apath:
            if type(va) is not VTuple:
                va = None
                break
            va = va.fst if first else va.snd
        for first in bpath:
            if type(vb) is not VTuple:
                vb = None
                break
            vb = vb.fst if first else vb.snd
        steps = budget.steps_used + cost
        if type(vf) is not VClosure or va is None or vb is None or steps > budget.fuel:
            return slow(env, budget)
        memo = budget.memo
        if memo is not None:
            key = (id(vf), id(va), id(vb))
            hit = memo.get(key)
            if hit is not None and steps + hit[4] <= budget.fuel:
                budget.steps_used = steps + hit[4]
                return hit[3]
        budget.steps_used = steps
        pair = _new(VTuple)
        _set_fst(pair, va)
        _set_snd(pair, vb)
        inner = dict(vf.env)
        inner[vf.param] = pair
        if vf.self_name is not None:
            inner[vf.self_name] = vf
        body = vf.body
        try:
            run = body._compiled[domain]
        except (AttributeError, KeyError):
            run = compiled(body, domain)
        if memo is None:
            return run(inner, budget)
        result = run(inner, budget)
        # Holding the three objects keeps their ids from being reused.
        memo[key] = (vf, va, vb, result, budget.steps_used - steps)
        return result
    return code


def _compile_prim(node: Prim, domain) -> Code:
    op = node.op
    if op in _ABSTRACT:
        return _compile_abstract(node, domain, True)
    try:
        implementation = PRIMITIVES[op]
    except KeyError:
        raise TypeError(f"unknown primitive {op!r}") from None
    if _eta_literal(node):
        return _constant(implementation(VInt(node.args[0].value), domain))
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


def _eta_literal(node: Prim) -> bool:
    """Whether ``node`` is ``eta`` of an integer literal: one value under
    one domain, a constant."""
    return node.op is PrimOp.ETA and len(node.args) == 1 and type(node.args[0]) is IntLit


def _constant(value) -> Code:
    """``eta`` of a literal, whose ``value`` was computed at compile time."""
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


def _compile_abstract(node: Prim, domain, box: bool) -> Code:
    """An abstract primitive, which calls its domain function itself and
    returns the result boxed if ``box`` and unboxed otherwise.  An operand
    that is itself an abstract primitive, ``eta`` of a literal or a
    projection chain gives its abstract value unboxed; any other operand,
    a variable included, runs its own code.  Both operands
    run before either is read as an abstract value, as in the walker, so an
    error in reading the first comes after the second has run.

    When both operands are *direct*, each ``eta`` of a literal, a variable
    or a projection path over one, the primitive and its operands are one
    closure.  It spends all their steps at once and reads both operands
    inline when both variables hold abstract values; otherwise it runs the
    code above, so no domain function is called twice."""
    function, takes_domain = _ABSTRACT[node.op]
    operands = []
    direct = []                     # (variable or None, path, constant, cost)
    for a in node.args:
        t = type(a)
        if t is Prim and a.op in _ABSTRACT:
            operands.append(_compile_abstract(a, domain, False))
        elif t is Prim and _eta_literal(a):
            value = domains.eta_met_value(VInt(a.args[0].value), domain)
            operands.append(_constant(value))
            direct.append((None, (), VAbs(value), 2))
        else:
            operands.append(_compile_proj(a, domain, False) if t is Proj1 or t is Proj2
                            else _COMPILERS[t](a, domain))
            leaf = _leaf(a)
            if leaf is not None:
                direct.append((*leaf, None, len(leaf[1]) + 1))
    left, right = operands

    def code(env, budget):
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        a = left(env, budget)
        b = right(env, budget)
        if not isinstance(a, AbsValue):
            a = a.value if type(a) is VAbs else domains.met_value_to_abs(a)
        if not isinstance(b, AbsValue):
            b = b.value if type(b) is VAbs else domains.met_value_to_abs(b)
        fn = _DOMAIN_FUNCTIONS[function]
        r = fn(a, b, domain) if takes_domain else fn(a, b)
        if box:
            v = _new(VAbs)
            _set_abs(v, r)
            return v
        return r

    if len(direct) < 2:
        return code
    (an, apath, aval, acost), (bn, bpath, bval, bcost) = direct
    cost = 1 + acost + bcost        # the Prim node and both operands

    def fused(env, budget):
        steps = budget.steps_used + cost
        va = aval if an is None else env.get(an)
        vb = bval if bn is None else env.get(bn)
        if steps > budget.fuel or type(va) is not VAbs or type(vb) is not VAbs:
            return code(env, budget)
        budget.steps_used = steps
        a = domains.abs_proj_path(va.value, apath) if apath else va.value
        b = domains.abs_proj_path(vb.value, bpath) if bpath else vb.value
        fn = _DOMAIN_FUNCTIONS[function]
        r = fn(a, b, domain) if takes_domain else fn(a, b)
        if box:
            v = _new(VAbs)
            _set_abs(v, r)
            return v
        return r
    return fused


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
    contain abstract values.  Errors are those of :func:`eval_met`; the
    application itself costs one step.
    """
    if budget is None:
        budget = EvalBudget()
    try:
        vf = compiled(fn, domain)({}, budget)
        if not isinstance(vf, VClosure):
            raise StuckError("program did not evaluate to a function")
        if budget.steps_used >= budget.fuel:
            budget.tick()
        budget.steps_used += 1
        return compiled(vf.body, domain)(_call_env(vf, arg), budget)
    except RecursionError:
        raise FuelExhausted("evaluation exceeded the host recursion depth") from None
