"""Online partial evaluator for the meta-language.

``specialize(e, i1)`` takes a program ``e`` denoting a function over a
pair and a known first component ``i1``, and returns a one-argument
residual program ``r`` such that running ``r`` on any ``i2`` equals
running ``e`` on the pair ``(i1, i2)`` whenever the latter is defined.

The specializer is online: binding times are discovered while walking
the program, and a specialization-time value's class is its binding time
(Jones, Gomard & Sestoft 1993).  A value known at specialization time is
the ``MetValue`` itself, and residual code standing for a runtime value
is the ``MetExpr`` itself; the two base classes are disjoint, so neither
is wrapped, and a binding-time test is a class test.  Two structured
forms that the workload needs extend that split:

* a tuple whose components have different binding times (the top-level
  argument is exactly that: known program, unknown input), and
* specialization-time closures, so that calls to statically known
  functions unfold.

Projections and matches on known values execute during specialization;
matches on residual values are themselves residualized with freshly
named pattern variables.  Concrete arithmetic on known integers folds;
abstract primitives are always residualized, since abstract values have
no literal syntax to reify into.

The specializer is closure-compiled, as the evaluator is (Feeley &
Lapalme 1987): each node is translated once, through a table keyed by
node class, into a host function ``code(env, spec)`` returning the
node's specialization-time value, so the dispatch on node classes is
paid once per node, not once per visit.  This is the staged half of a
generating extension (Jones, Gomard & Sestoft 1993): ``retarget``
specializes one fixed program, the abstract interpreter, against each
definitional interpreter, and its nodes are compiled on the first
specialization only.

Code is cached on the node it was compiled from, in the ``_pe_code``
slot that every ``MetExpr`` has, so it lives exactly as long as the
node.  Only code nodes are cached: the expression given to
:func:`specialize` and each closure body, the first time it unfolds or
is residualized.  Nothing is cached on the static
input, such as an embedded source program, which would keep code alive
as long as every program specialized; the body of a closure that came
with the static input is compiled for each application and not kept.

A ``match`` on a known value is decided as the evaluator decides it: it
tries, in order, only the branches that the evaluator's ``match_plan``
finds can match the value's constructor tag (or a value that is not a
constructor), and binds a known value with the pattern's cached
``binder``.

Three shapes of the abstract interpreter run as one closure each, as the
evaluator's superoperators do (Proebsting 1995).  A call ``f (a, b)`` of
a variable on two leaves (a variable, or a projection path over one)
reads the leaves inline, through ``SplitTuple`` and known ``VTuple``s,
and unfolds a ``PEClosure`` itself.  A ``match`` on a leaf reads it
inline and binds a known constructor inline where its tag's first
candidate is a constructor over variables and wildcards.  An abstract
primitive of arity 1 or 2 specializes its arguments, then residualizes
them.  The evaluator's ``pair_call`` and ``match_plan`` plan the calls
and matches for both compilers.  A fused form runs only when every
inline read succeeds and, for a call, an unfolding is left; otherwise
the node-by-node code runs.

The compiled code applies the same rules as a tree walk, in the same
order: children are specialized left to right, fresh names are drawn at
the same points, and every error is raised with the same message.  So
the residual, the order of its fresh names and the number of unfoldings
are the same as a tree walk's.
"""

from __future__ import annotations

from typing import Callable

from .domains import AbsValue
from .errors import FuelExhausted, ReifyError, StuckError
from .met.interp import PRIMITIVES, _Compilers, binder, chain, match_plan, pair_call
from .met.printer import count_nodes
from .met.syntax import (
    App,
    Construct,
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
    VClosure,
    VConstruct,
    VInt,
    VTuple,
    Var,
    pattern_vars,
    record,
)

# ---------------------------------------------------------------------------
# Two-level values
# ---------------------------------------------------------------------------


@record
class SplitTuple:
    """A tuple whose components have different binding times."""

    fst: PEValue
    snd: PEValue


@record
class PEClosure:
    """A function known at specialization time; applications unfold."""

    param: str
    body: MetExpr
    env: dict[str, PEValue]
    self_name: str | None = None


# A known value is a ``MetValue``, a residual fragment a ``MetExpr``.
PEValue = MetValue | MetExpr | SplitTuple | PEClosure


def reify(v: MetValue) -> MetExpr:
    """Literal expression evaluating to ``v`` in the empty environment."""
    cls = type(v)
    if cls is VInt:
        return IntLit(v.value)
    if cls is VTuple:
        return Tuple(reify(v.fst), reify(v.snd))
    if cls is VConstruct:
        return Construct(v.tag, tuple(reify(a) for a in v.args))
    if cls is VClosure:
        raise ReifyError("a closure has no literal syntax")
    if isinstance(v, AbsValue):
        raise ReifyError("an abstract value has no literal syntax")
    raise TypeError(f"not a meta-language value: {v!r}")


# Bound on function-call unfoldings per specialization.  Unfolding is
# driven by static data, so a fixed interpreter needs a fixed number of
# them (tens here); the bound only stops recursion on unknown data.
UNFOLD_LIMIT = 100_000

_NO_MATCH = object()
_UNKNOWN = object()

Env = dict[str, PEValue]
Code = Callable[[Env, "_Specializer"], PEValue]


class _Specializer:
    """The state of one specialization: fresh names and unfoldings left."""

    def __init__(self):
        self.limit = UNFOLD_LIMIT
        self.unfolds_left = self.limit
        self._name_counts: dict[str, int] = {}
        self._used_names: set[str] = set()

    def fresh(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        while True:
            name = base if count == 0 else f"{base}{count}"
            count += 1
            if name not in self._used_names:
                self._name_counts[base] = count
                self._used_names.add(name)
                return name

    def apply(self, vf: PEValue, va: PEValue) -> PEValue:
        t = type(vf)
        if t is PEClosure or t is VClosure:
            self.spend_unfold()
            call_env = dict(vf.env)
            call_env[vf.param] = va
            if vf.self_name is not None:
                call_env[vf.self_name] = vf
            body = vf.body
            if t is PEClosure:
                return _code(body)(call_env, self)
            # A closure that came with the static input: its body is
            # compiled for this call only, so nothing is cached on that input.
            return _COMPILERS[type(body)](body)(call_env, self)
        if isinstance(vf, MetExpr):
            return App(vf, self.residualize(va))
        raise StuckError("application of a non-function")

    def spend_unfold(self) -> None:
        if self.unfolds_left <= 0:
            raise FuelExhausted(f"specialization exceeded {self.limit} call unfoldings")
        self.unfolds_left -= 1

    def residual_match(self, scrutinee: PEValue,
                       branches: tuple[tuple[Pattern, list[str], Code], ...],
                       env: Env) -> PEValue:
        out = []
        for pat, names, body in branches:
            renaming = {name: self.fresh(name) for name in names}
            bound = {old: Var(new) for old, new in renaming.items()}
            body_v = body({**env, **bound}, self)
            out.append((rename_pattern(pat, renaming), self.residualize(body_v)))
        return Match(self.residualize(scrutinee), tuple(out))

    def residualize(self, v: PEValue) -> MetExpr:
        if isinstance(v, MetExpr):
            return v
        if isinstance(v, MetValue):
            return reify(v)
        t = type(v)
        if t is SplitTuple:
            return Tuple(self.residualize(v.fst), self.residualize(v.snd))
        if t is PEClosure:
            fresh_param = self.fresh(v.param)
            inner = {**v.env, v.param: Var(fresh_param)}
            body = _code(v.body)
            if v.self_name is None:
                return Lambda(fresh_param, self.residualize(body(inner, self)))
            fresh_self = self.fresh(v.self_name)
            inner[v.self_name] = Var(fresh_self)
            rebuilt = self.residualize(body(inner, self))
            return LetRecFun(fresh_self, fresh_param, rebuilt, Var(fresh_self))
        raise TypeError(f"not a specialization-time value: {v!r}")


def _pe_match_pattern(pat: Pattern, v: PEValue):
    """Bindings, _NO_MATCH, or _UNKNOWN (needs runtime information)."""
    tp = type(pat)
    if tp is PWild:
        return {}
    if tp is PVar:
        return {pat.name: v}
    if isinstance(v, MetValue):
        bindings = binder(pat)(v, {})
        return _NO_MATCH if bindings is None else bindings
    t = type(v)
    if t is SplitTuple:
        if tp is not PTuple:
            # The runtime value is certainly a tuple.
            return _NO_MATCH
        left = _pe_match_pattern(pat.fst, v.fst)
        if left is _NO_MATCH or left is _UNKNOWN:
            return left
        right = _pe_match_pattern(pat.snd, v.snd)
        if right is _NO_MATCH or right is _UNKNOWN:
            return right
        return {**left, **right}
    if t is PEClosure:
        return _NO_MATCH
    if isinstance(v, MetExpr):
        return _UNKNOWN
    raise TypeError(f"not a specialization-time value: {v!r}")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _code(node: MetExpr) -> Code:
    """The specialization code of ``node``, compiled on first use and
    cached on the node."""
    try:
        return node._pe_code
    except AttributeError:
        code = _COMPILERS[type(node)](node)
        object.__setattr__(node, "_pe_code", code)
        return code


def _compile_var(node: Var) -> Code:
    name = node.name

    def code(env, spec):
        try:
            return env[name]
        except KeyError:
            raise StuckError(f"unbound variable {name!r}") from None
    return code


def _compile_int(node: IntLit) -> Code:
    value = VInt(node.value)
    return lambda env, spec: value


def _compile_tuple(node: Tuple) -> Code:
    fst = _COMPILERS[type(node.fst)](node.fst)
    snd = _COMPILERS[type(node.snd)](node.snd)

    def code(env, spec):
        va = fst(env, spec)
        vb = snd(env, spec)
        if isinstance(va, MetValue) and isinstance(vb, MetValue):
            return VTuple(va, vb)
        return SplitTuple(va, vb)
    return code


def _compile_proj(node: Proj1 | Proj2) -> Code:
    """A chain of projections over any base as one closure, which walks the
    base's value innermost level first and residualizes the rest of the
    chain around residual code, with no host frame per level."""
    base, path = chain(node)
    arg = _COMPILERS[type(base)](base)
    levels = tuple(enumerate(path))

    def code(env, spec):
        v = arg(env, spec)
        for i, first in levels:
            t = type(v)
            if t is SplitTuple or t is VTuple:
                v = v.fst if first else v.snd
            elif isinstance(v, MetExpr):
                for first in path[i:]:
                    v = Proj1(v) if first else Proj2(v)
                return v
            elif isinstance(v, AbsValue):
                # Reached from an abstract static input.  Abstract primitives
                # (projections included) never run at specialization time,
                # and residualizing would need a literal.
                raise ReifyError("projection of an abstract value at specialization time")
            else:
                raise StuckError("projection of a non-tuple")
        return v
    return code


def _compile_construct(node: Construct) -> Code:
    tag = node.tag
    args = tuple(_COMPILERS[type(a)](a) for a in node.args)

    def code(env, spec):
        vs = tuple([a(env, spec) for a in args])
        for v in vs:
            if not isinstance(v, MetValue):
                return Construct(tag, tuple([spec.residualize(v) for v in vs]))
        return VConstruct(tag, vs)
    return code


def _compile_match(node: Match) -> Code:
    scrutinee = _COMPILERS[type(node.scrutinee)](node.scrutinee)
    branches = tuple((pat, _COMPILERS[type(body)](body)) for pat, body in node.branches)
    residual = tuple((pat, pattern_vars(pat), body) for pat, body in branches)
    # A leaf scrutinee is read inline; None, the name of no variable,
    # makes every other scrutinee run its code.
    (name, path), (by_tag, others), inline = match_plan(node.scrutinee, branches)

    def code(env, spec):
        v = env.get(name)
        for first in path:
            if type(v) is not SplitTuple and type(v) is not VTuple:
                v = None
                break
            v = v.fst if first else v.snd
        if v is None:
            v = scrutinee(env, spec)
        if type(v) is VConstruct:
            arity, slots, body = inline.get(v.tag, (-1, (), None))   # -1: no arity
            args = v.args
            if len(args) == arity:
                if not slots:
                    return body(env, spec)
                inner = dict(env)
                for i, n in slots:
                    inner[n] = args[i]
                return body(inner, spec)
            tried = by_tag.get(v.tag, others)
        elif isinstance(v, MetExpr):
            return spec.residual_match(v, residual, env)
        else:
            tried = others
        for pat, body in tried:
            bindings = _pe_match_pattern(pat, v)
            if bindings is _NO_MATCH:
                continue
            if bindings is _UNKNOWN:
                return spec.residual_match(v, residual, env)
            return body({**env, **bindings}, spec) if bindings else body(env, spec)
        raise StuckError("no branch matches at specialization time")
    return code


def _compile_let(node: Let) -> Code:
    name = node.name
    bound = _COMPILERS[type(node.bound)](node.bound)
    body = _COMPILERS[type(node.body)](node.body)

    def code(env, spec):
        bv = bound(env, spec)
        if isinstance(bv, MetExpr):
            fresh = spec.fresh(name)
            result = body({**env, name: Var(fresh)}, spec)
            return Let(fresh, bv, spec.residualize(result))
        return body({**env, name: bv}, spec)
    return code


def _compile_letrec(node: LetRecFun) -> Code:
    fun_name, param, fun_body = node.fun_name, node.param, node.fun_body
    body = _COMPILERS[type(node.body)](node.body)

    def code(env, spec):
        closure = PEClosure(param, fun_body, env, self_name=fun_name)
        return body({**env, fun_name: closure}, spec)
    return code


def _compile_lambda(node: Lambda) -> Code:
    param, fun_body = node.param, node.body
    return lambda env, spec: PEClosure(param, fun_body, env)


def _compile_app(node: App) -> Code:
    """An application.  A call ``f (a, b)`` of a variable on two leaves, as
    ``pair_call`` plans it, is one closure, which unfolds a ``PEClosure``
    itself and falls back on the node-by-node code."""
    fun = _COMPILERS[type(node.fun)](node.fun)
    arg = _COMPILERS[type(node.arg)](node.arg)

    def slow(env, spec):
        vf = fun(env, spec)
        return spec.apply(vf, arg(env, spec))
    plan = pair_call(node)
    if plan is None:
        return slow
    name, (an, apath), (bn, bpath) = plan

    def code(env, spec):
        vf, va, vb = env.get(name), env.get(an), env.get(bn)
        for first in apath:
            if type(va) is not SplitTuple and type(va) is not VTuple:
                va = None
                break
            va = va.fst if first else va.snd
        for first in bpath:
            if type(vb) is not SplitTuple and type(vb) is not VTuple:
                vb = None
                break
            vb = vb.fst if first else vb.snd
        if type(vf) is not PEClosure or va is None or vb is None or spec.unfolds_left <= 0:
            return slow(env, spec)
        spec.unfolds_left -= 1
        inner = dict(vf.env)
        if isinstance(va, MetValue) and isinstance(vb, MetValue):
            inner[vf.param] = VTuple(va, vb)
        else:
            inner[vf.param] = SplitTuple(va, vb)
        if vf.self_name is not None:
            inner[vf.self_name] = vf
        body = vf.body
        try:
            run = body._pe_code
        except AttributeError:
            run = _code(body)
        return run(inner, spec)
    return code


def _compile_prim(node: Prim) -> Code:
    op = node.op
    args = tuple(_COMPILERS[type(a)](a) for a in node.args)
    if op.is_abstract and len(args) == 1:
        # Abstract primitives are always residualized: every argument is
        # specialized, left to right, before any is residualized.
        (a,) = args

        def code(env, spec):
            va = a(env, spec)
            return Prim(op, (va if isinstance(va, MetExpr) else spec.residualize(va),))
        return code
    if op.is_abstract and len(args) == 2:
        a, b = args

        def code(env, spec):
            va = a(env, spec)
            vb = b(env, spec)
            return Prim(op, (va if isinstance(va, MetExpr) else spec.residualize(va),
                             vb if isinstance(vb, MetExpr) else spec.residualize(vb)))
        return code
    # Concrete arithmetic on known operands folds; it needs no domain.
    implementation = None if op.is_abstract else PRIMITIVES[op]

    def code(env, spec):
        vs = [a(env, spec) for a in args]
        if implementation is not None:
            for v in vs:
                if not isinstance(v, MetValue):
                    break
            else:
                return implementation(*vs, None)
        return Prim(op, tuple([spec.residualize(v) for v in vs]))
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


def rename_pattern(pat: Pattern, renaming: dict[str, str]) -> Pattern:
    match pat:
        case PVar(name):
            return PVar(renaming[name])
        case PWild() | PInt():
            return pat
        case PTuple(a, b):
            return PTuple(rename_pattern(a, renaming), rename_pattern(b, renaming))
        case PConstruct(tag, args):
            return PConstruct(tag, tuple(rename_pattern(a, renaming) for a in args))
    raise TypeError(f"not a pattern: {pat!r}")


def specialize(e: MetExpr, static_input: MetValue) -> MetExpr:
    """Specialize function ``e`` to a known first tuple component.

    ``e`` must be closed and denote a function over a pair; the result
    is a one-argument function over the remaining component.

    Unfolding recursion that is controlled by unknown data cannot
    terminate; it ends in :class:`FuelExhausted`, either from
    ``UNFOLD_LIMIT`` or from the host stack, whichever is hit first.
    """
    spec = _Specializer()
    try:
        fn = _code(e)({}, spec)
        param = spec.fresh("i")
        arg = SplitTuple(static_input, Var(param))
        result = spec.apply(fn, arg)
        return Lambda(param, spec.residualize(result))
    except RecursionError:
        raise FuelExhausted("specialization exceeded the host recursion depth") from None


# ---------------------------------------------------------------------------
# Residual reports
# ---------------------------------------------------------------------------

ABSTRACT_OPS = tuple(op.name for op in PrimOp if op.is_abstract)


@record
class ResidualStats:
    """Node census of a residual program plus derived flags."""

    counts: dict[str, int]
    has_match: bool
    abstract_ops: dict[str, int]


def residual_stats(e: MetExpr) -> ResidualStats:
    counts = count_nodes(e)
    abstract_ops = {name: counts[name] for name in ABSTRACT_OPS if name in counts}
    return ResidualStats(counts, counts.get("Match", 0) > 0, abstract_ops)
