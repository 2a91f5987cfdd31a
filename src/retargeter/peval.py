"""Online partial evaluator for the meta-language.

``specialize(e, i1)`` takes a program ``e`` denoting a function over a
pair and a known first component ``i1``, and returns a one-argument
residual program ``r`` such that running ``r`` on any ``i2`` equals
running ``e`` on the pair ``(i1, i2)`` whenever the latter is defined.

The specializer is online: binding times are discovered while walking
the program.  Specialization-time values extend the static/dynamic split
with two structured forms that the workload needs:

* a tuple whose components have different binding times (the top-level
  argument is exactly that: known program, unknown input), and
* specialization-time closures, so that calls to statically known
  functions unfold.

Projections and matches on known values execute during specialization;
matches on residual values are themselves residualized with freshly
named pattern variables.  Concrete arithmetic on known integers folds;
abstract primitives are always residualized, since abstract values have
no literal syntax to reify into.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FuelExhausted, ReifyError, StuckError
from .met.interp import PRIMITIVES, match_pattern
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
    VAbs,
    VClosure,
    VConstruct,
    VInt,
    VTuple,
    Var,
    pattern_vars,
)

# ---------------------------------------------------------------------------
# Two-level values
# ---------------------------------------------------------------------------


class PEValue:
    __slots__ = ()


@dataclass(frozen=True)
class Static(PEValue):
    """A value fully known at specialization time."""

    value: MetValue


@dataclass(frozen=True)
class Dynamic(PEValue):
    """A residual code fragment standing for a runtime value."""

    expr: MetExpr


@dataclass(frozen=True)
class SplitTuple(PEValue):
    """A tuple whose components have different binding times."""

    fst: PEValue
    snd: PEValue


@dataclass(frozen=True)
class PEClosure(PEValue):
    """A function known at specialization time; applications unfold."""

    param: str
    body: MetExpr
    env: dict[str, PEValue]
    self_name: str | None = None


def reify(v: MetValue) -> MetExpr:
    """Literal expression evaluating to ``v`` in the empty environment."""
    match v:
        case VInt(n):
            return IntLit(n)
        case VTuple(a, b):
            return Tuple(reify(a), reify(b))
        case VConstruct(tag, args):
            return Construct(tag, tuple(reify(a) for a in args))
        case VClosure():
            raise ReifyError("a closure has no literal syntax")
        case VAbs():
            raise ReifyError("an abstract value has no literal syntax")
    raise TypeError(f"not a meta-language value: {v!r}")


# Bound on function-call unfoldings per specialization.  Unfolding is
# driven by static data, so a fixed interpreter needs a fixed number of
# them (tens here); the bound only stops recursion on unknown data.
UNFOLD_LIMIT = 100_000

_NO_MATCH = object()
_UNKNOWN = object()


class _Specializer:
    def __init__(self):
        self.limit = UNFOLD_LIMIT
        self.unfolds_left = self.limit
        self._name_counts: dict[str, int] = {}
        self._used_names: set[str] = set()

    # -- fresh names -------------------------------------------------------

    def fresh(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        while True:
            name = base if count == 0 else f"{base}{count}"
            count += 1
            if name not in self._used_names:
                self._name_counts[base] = count
                self._used_names.add(name)
                return name

    # -- core --------------------------------------------------------------

    def pe(self, e: MetExpr, env: dict[str, PEValue]) -> PEValue:
        match e:
            case Var(name):
                try:
                    return env[name]
                except KeyError:
                    raise StuckError(f"unbound variable {name!r}") from None
            case IntLit(n):
                return Static(VInt(n))
            case Tuple(a, b):
                va, vb = self.pe(a, env), self.pe(b, env)
                if isinstance(va, Static) and isinstance(vb, Static):
                    return Static(VTuple(va.value, vb.value))
                return SplitTuple(va, vb)
            case Proj1(a):
                return self.project(self.pe(a, env), first=True)
            case Proj2(a):
                return self.project(self.pe(a, env), first=False)
            case Construct(tag, args):
                vs = [self.pe(a, env) for a in args]
                if all(isinstance(v, Static) for v in vs):
                    return Static(VConstruct(tag, tuple(v.value for v in vs)))
                return Dynamic(Construct(tag, tuple(self.residualize(v) for v in vs)))
            case Match(scrutinee, branches):
                return self.pe_match(self.pe(scrutinee, env), branches, env)
            case Let(name, bound, body):
                bv = self.pe(bound, env)
                if isinstance(bv, Dynamic):
                    fresh = self.fresh(name)
                    result = self.pe(body, {**env, name: Dynamic(Var(fresh))})
                    return Dynamic(Let(fresh, bv.expr, self.residualize(result)))
                return self.pe(body, {**env, name: bv})
            case LetRecFun(fname, param, fbody, body):
                closure = PEClosure(param, fbody, env, self_name=fname)
                return self.pe(body, {**env, fname: closure})
            case Lambda(param, body):
                return PEClosure(param, body, env)
            case App(fun, arg):
                return self.apply(self.pe(fun, env), self.pe(arg, env))
            case Prim(op, args):
                return self.pe_prim(op, [self.pe(a, env) for a in args])
        raise TypeError(f"not a meta-language expression: {e!r}")

    def project(self, v: PEValue, first: bool) -> PEValue:
        match v:
            case Static(VTuple(a, b)):
                return Static(a if first else b)
            case SplitTuple(a, b):
                return a if first else b
            case Dynamic(r):
                return Dynamic(Proj1(r) if first else Proj2(r))
            case Static(VAbs()):
                # Reached from an abstract static input.  Abstract primitives
                # (projections included) never run at specialization time,
                # and residualizing would need a literal.
                raise ReifyError("projection of an abstract value at specialization time")
            case _:
                raise StuckError("projection of a non-tuple")

    def apply(self, vf: PEValue, va: PEValue) -> PEValue:
        match vf:
            case PEClosure(param, body, fenv, self_name):
                self.spend_unfold()
                call_env = dict(fenv)
                call_env[param] = va
                if self_name is not None:
                    call_env[self_name] = vf
                return self.pe(body, call_env)
            case Static(VClosure(param, body, cenv, self_name)):
                self.spend_unfold()
                call_env = {k: Static(v) for k, v in cenv.items()}
                call_env[param] = va
                if self_name is not None:
                    call_env[self_name] = vf
                return self.pe(body, call_env)
            case Dynamic(r):
                return Dynamic(App(r, self.residualize(va)))
            case _:
                raise StuckError("application of a non-function")

    def spend_unfold(self) -> None:
        if self.unfolds_left <= 0:
            raise FuelExhausted(
                f"specialization exceeded {self.limit} call unfoldings"
            )
        self.unfolds_left -= 1

    def pe_prim(self, op: PrimOp, vs: list[PEValue]) -> PEValue:
        if not op.is_abstract and all(isinstance(v, Static) for v in vs):
            # Concrete arithmetic needs no domain.
            return Static(PRIMITIVES[op](*[v.value for v in vs], None))
        return Dynamic(Prim(op, tuple(self.residualize(v) for v in vs)))

    # -- match handling ------------------------------------------------------

    def pe_match(self, scrutinee: PEValue,
                 branches: tuple[tuple[Pattern, MetExpr], ...],
                 env: dict[str, PEValue]) -> PEValue:
        if not isinstance(scrutinee, Dynamic):
            for pat, body in branches:
                bindings = self.pe_match_pattern(pat, scrutinee)
                if bindings is _NO_MATCH:
                    continue
                if bindings is _UNKNOWN:
                    break
                return self.pe(body, {**env, **bindings})
            else:
                raise StuckError("no branch matches at specialization time")
        return self.residual_match(scrutinee, branches, env)

    def pe_match_pattern(self, pat: Pattern, v: PEValue):
        """Bindings, _NO_MATCH, or _UNKNOWN (needs runtime information)."""
        match pat:
            case PWild():
                return {}
            case PVar(name):
                return {name: v}
            case _:
                pass
        match v:
            case Static(value):
                bindings = match_pattern(pat, value)
                if bindings is None:
                    return _NO_MATCH
                return {name: Static(val) for name, val in bindings.items()}
            case SplitTuple(a, b):
                if not isinstance(pat, PTuple):
                    # The runtime value is certainly a tuple.
                    return _NO_MATCH
                left = self.pe_match_pattern(pat.fst, a)
                if left in (_NO_MATCH, _UNKNOWN):
                    return left
                right = self.pe_match_pattern(pat.snd, b)
                if right in (_NO_MATCH, _UNKNOWN):
                    return right
                return {**left, **right}
            case PEClosure():
                return _NO_MATCH
            case Dynamic():
                return _UNKNOWN
        raise TypeError(f"not a specialization-time value: {v!r}")

    def residual_match(self, scrutinee: PEValue,
                       branches: tuple[tuple[Pattern, MetExpr], ...],
                       env: dict[str, PEValue]) -> PEValue:
        out = []
        for pat, body in branches:
            renaming = {name: self.fresh(name) for name in pattern_vars(pat)}
            bound = {old: Dynamic(Var(new)) for old, new in renaming.items()}
            body_v = self.pe(body, {**env, **bound})
            out.append((rename_pattern(pat, renaming), self.residualize(body_v)))
        return Dynamic(Match(self.residualize(scrutinee), tuple(out)))

    # -- residual emission ---------------------------------------------------

    def residualize(self, v: PEValue) -> MetExpr:
        match v:
            case Static(value):
                return reify(value)
            case Dynamic(expr):
                return expr
            case SplitTuple(a, b):
                return Tuple(self.residualize(a), self.residualize(b))
            case PEClosure(param, body, env, self_name):
                fresh_param = self.fresh(param)
                inner = {**env, param: Dynamic(Var(fresh_param))}
                if self_name is None:
                    return Lambda(fresh_param, self.residualize(self.pe(body, inner)))
                fresh_self = self.fresh(self_name)
                inner[self_name] = Dynamic(Var(fresh_self))
                rebuilt = self.residualize(self.pe(body, inner))
                return LetRecFun(fresh_self, fresh_param, rebuilt, Var(fresh_self))
        raise TypeError(f"not a specialization-time value: {v!r}")


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
        fn = spec.pe(e, {})
        param = spec.fresh("i")
        arg = SplitTuple(Static(static_input), Dynamic(Var(param)))
        result = spec.apply(fn, arg)
        return Lambda(param, spec.residualize(result))
    except RecursionError:
        raise FuelExhausted("specialization exceeded the host recursion depth") from None


# ---------------------------------------------------------------------------
# Residual reports
# ---------------------------------------------------------------------------

ABSTRACT_OPS = tuple(op.name for op in PrimOp if op.is_abstract)


@dataclass(frozen=True)
class ResidualStats:
    """Node census of a residual program plus derived flags."""

    counts: dict[str, int]
    has_match: bool
    abstract_ops: dict[str, int]


def residual_stats(e: MetExpr) -> ResidualStats:
    counts = count_nodes(e)
    abstract_ops = {name: counts[name] for name in ABSTRACT_OPS if name in counts}
    return ResidualStats(counts, counts.get("Match", 0) > 0, abstract_ops)
