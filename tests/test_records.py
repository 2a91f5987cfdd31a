"""Records: every immutable node, value and abstract element of the package
is declared with ``met.syntax.record``, a frozen, slotted dataclass with a
constructor that stores through the slot setters.

The record classes are found by scanning the package's modules, so a new
immutable class is checked without being listed here: each must have an
example below, no ``__dict__``, frozen fields, and the ``repr``, ``==``
and ``hash`` of a plain ``dataclass(frozen=True)`` twin.

Runs under pytest, or alone without it::

    PYTHONPATH=src python tests/test_records.py
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil
import sys
from pathlib import Path

import retargeter
from retargeter import domains, peval, retargeting, srclang, tgtlang
from retargeter.analyzer import build_abstract_interpreter
from retargeter.domains import BOT, INTERVAL, TOP, APair, Interval, Sign, SignSet
from retargeter.met import syntax
from retargeter.met.interp import apply_met_function, compiled
from retargeter.met.parser import parse_met
from retargeter.met.printer import print_met
from retargeter.met.syntax import (
    App,
    Construct,
    IntLit,
    Lambda,
    Let,
    LetRecFun,
    Match,
    PConstruct,
    PInt,
    PrimOp,
    PTuple,
    PVar,
    PWild,
    Prim,
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
from retargeter.peval import specialize
from retargeter.srclang import embed_src_expr, embed_src_value
from retargeter.tgtlang import interpreter_fixture

# The two dataclasses whose instances change after construction.
MUTABLE = {syntax.EvalBudget, retargeting.Report}

_x = Var("x")
_pos = domains.Num(SignSet.of(Sign.POS))
# One instance of every record class; ``test_every_record_class_has_an_example``
# fails when the scan finds a class missing here.
EXAMPLES = [
    _x, IntLit(1), Tuple(_x, IntLit(2)), Proj1(_x), Proj2(_x),
    Construct("Pair", (_x, IntLit(0))),
    Match(_x, ((PConstruct("Num", (PVar("n"),)), Var("n")), (PWild(), IntLit(0)))),
    Let("y", IntLit(1), _x), LetRecFun("f", "n", Var("n"), App(Var("f"), _x)),
    Lambda("x", _x), App(Var("f"), _x), Prim(PrimOp.ADD, (_x, IntLit(1))),
    PVar("n"), PWild(), PInt(3), PTuple(PVar("a"), PWild()), PConstruct("Pair", (PWild(), PInt(0))),
    VInt(4), VTuple(VInt(1), VInt(2)), VConstruct("Num", (VInt(1),)),
    VClosure("x", _x, {}), VAbs(_pos),
    srclang.X(), srclang.Num(5), srclang.Add(srclang.X(), srclang.Num(1)),
    srclang.Mul(srclang.X(), srclang.X()), srclang.Eq(srclang.Num(0), srclang.X()),
    srclang.Pair(srclang.X(), srclang.Num(2)), srclang.Fst(srclang.X()), srclang.Snd(srclang.X()),
    srclang.If(srclang.X(), srclang.Num(1), srclang.Num(0)),
    srclang.SInt(7), srclang.SPair(srclang.SInt(1), srclang.SInt(2)),
    peval.Static(VInt(1)), peval.Dynamic(_x), peval.SplitTuple(peval.Static(VInt(1)), peval.Dynamic(_x)),
    peval.PEClosure("x", _x, {}), peval.ResidualStats({"Var": 1}, False, {}),
    SignSet.of(Sign.NEG, Sign.ZERO), Interval(-1, None), BOT, TOP, _pos, APair(_pos, TOP),
    tgtlang.TgtProgram((tgtlang.Instr("add", 2),)),
    retargeting.RetargetedAnalyzer(_x, INTERVAL, "seq2"),
]


def package_dataclasses() -> set[type]:
    """Every dataclass defined in a module of the package."""
    found = set()
    for info in pkgutil.walk_packages(retargeter.__path__, "retargeter."):
        if info.name == "retargeter.__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(info.name)
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == info.name
                  and dataclasses.is_dataclass(obj)}
    return found


def record_classes() -> set[type]:
    return package_dataclasses() - MUTABLE


def declared_fields(cls: type) -> tuple[str, ...]:
    """Field names in the order the class body annotates them."""
    return tuple(name for name, annotation in cls.__annotations__.items()
                 if not str(annotation).startswith("ClassVar"))


def twin(cls: type) -> type:
    """A plain ``dataclass(frozen=True)`` with ``cls``'s name, fields,
    defaults and ``__post_init__``."""
    namespace = {"__annotations__": dict(cls.__annotations__),
                 "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            namespace[f.name] = f.default
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def values(obj) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except TypeError as err:
        return TypeError, str(err)


@contextlib.contextmanager
def counting_compiles():
    """The names of the calls of ``exec`` and ``compile`` made inside the block."""
    calls: list[str] = []
    real = builtins.exec, builtins.compile

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    builtins.exec, builtins.compile = map(counted, real)
    try:
        yield calls
    finally:
        builtins.exec, builtins.compile = real


_fresh = itertools.count()


def declare(name: str, **annotations: str) -> type:
    """A record declared at run time, with string annotations as in the package."""
    return syntax.record(type(name, (), {"__annotations__": annotations, "__module__": __name__}))


def written_docstring(cls: type) -> str | None:
    """The docstring in ``cls``'s class statement, or None."""
    tree = ast.parse(Path(sys.modules[cls.__module__].__file__).read_text())
    return next(ast.get_docstring(node) for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == cls.__name__)


@contextlib.contextmanager
def raises(exc: type[BaseException]):
    try:
        yield
    except exc:
        return
    raise AssertionError(f"{exc.__name__} not raised")


def test_every_record_class_has_an_example():
    classes = record_classes()
    assert len(classes) > 40
    assert {type(e) for e in EXAMPLES} == classes
    assert MUTABLE <= package_dataclasses()


def test_records_are_slotted_and_frozen():
    for example in EXAMPLES:
        cls = type(example)
        assert cls.__dataclass_params__.frozen, cls
        assert not hasattr(example, "__dict__"), cls
        for f in dataclasses.fields(cls):
            with raises(dataclasses.FrozenInstanceError):
                setattr(example, f.name, getattr(example, f.name))
        with raises(AttributeError):  # no __dict__ to hold it
            object.__setattr__(example, "extra", 1)


def test_fields_match_args_and_keywords_are_as_declared():
    for example in EXAMPLES:
        cls = type(example)
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert names == declared_fields(cls), cls
        assert cls.__match_args__ == names, cls
        assert cls(**{f.name: getattr(example, f.name) for f in dataclasses.fields(cls)}) == example
        assert cls(*values(example)) == example
    assert VClosure("x", _x, {}).self_name is None
    assert peval.PEClosure("x", _x, {}).self_name is None
    assert VClosure("x", _x, {}, "f").self_name == "f"
    assert VClosure(param="x", body=_x, env={}, self_name="f") == VClosure("x", _x, {}, "f")


def test_repr_eq_and_hash_are_those_of_a_plain_frozen_dataclass():
    for example in EXAMPLES:
        cls = type(example)
        plain = twin(cls)
        mine, theirs = cls(*values(example)), plain(*values(example))
        assert repr(mine) == repr(theirs), cls
        assert outcome(hash, mine) == outcome(hash, theirs), cls
        assert mine == example and theirs == plain(*values(example)), cls
        assert mine != theirs, cls  # equality asks for the same class


def test_docstrings_are_those_of_a_plain_frozen_dataclass():
    undocumented = 0
    for cls in record_classes():
        written = written_docstring(cls)
        if written is None:
            undocumented += 1
            assert cls.__doc__ == twin(cls).__doc__, cls  # such as "Var(name: 'str')"
        else:
            assert inspect.cleandoc(cls.__doc__) == written, cls
    assert undocumented > 30


def test_replace_asdict_and_foreign_comparisons_are_those_of_the_twin():
    others = ["x", None, 0, VInt(1), peval.Static(VInt(1))]
    for k, example in enumerate(EXAMPLES):
        cls = type(example)
        plain = twin(cls)
        mine, theirs = cls(*values(example)), plain(*values(example))
        kwargs = {f.name: getattr(example, f.name) for f in dataclasses.fields(cls)}
        for changes in ({}, kwargs):
            replaced = dataclasses.replace(mine, **changes)
            assert type(replaced) is cls and replaced == mine and replaced is not mine, cls
            assert repr(replaced) == repr(dataclasses.replace(theirs, **changes)), cls
        assert outcome(dataclasses.asdict, mine) == outcome(dataclasses.asdict, theirs), cls
        assert outcome(dataclasses.astuple, mine) == outcome(dataclasses.astuple, theirs), cls
        for other in others + [EXAMPLES[k - 1]]:
            if type(other) is cls:
                continue
            assert (mine == other, mine != other) == (theirs == other, theirs != other) == (False, True)
            assert mine.__eq__(other) is theirs.__eq__(other) is NotImplemented, cls
    assert Var("x") != "x" and not Var("x") == "x"
    assert Proj1(_x) != Proj2(_x) and srclang.Num(5) != domains.Num(_pos)


def test_a_field_signature_is_compiled_once():
    with counting_compiles() as calls:
        Seen = declare("Seen", fst="MetExpr", snd="MetExpr")  # the signature of Tuple
        Empty = declare("Empty")  # the signature of PWild
    assert calls == []
    assert Seen(_x, IntLit(1)) == Seen(_x, IntLit(1)) != Tuple(_x, IntLit(1))
    assert repr(Seen(_x, IntLit(1))) == "Seen(fst=Var(name='x'), snd=IntLit(value=1))"
    assert Seen.__doc__ == "Seen(fst: 'MetExpr', snd: 'MetExpr')" and Empty.__doc__ == "Empty()"
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        # Each class has its own copy of the code, which the interpreter
        # specializes to that class alone.
        mine, theirs = getattr(Seen, name).__code__, getattr(Tuple, name).__code__
        assert mine is not theirs and mine.co_code == theirs.co_code, name
    fresh = f"field{next(_fresh)}"  # a field name no record has
    with counting_compiles() as calls:
        New = declare("New", **{fresh: "int"})
        Again = declare("Again", **{fresh: "int"})
    assert calls == ["exec"]
    assert repr(New(1)) == f"New({fresh}=1)" and hash(New(1)) == hash(Again(1)) == hash((1,))
    assert New(1) != Again(1)


def test_post_init_checks_still_fire():
    for build in (lambda: SignSet(frozenset()), lambda: Interval(3, 1), lambda: APair(BOT, TOP)):
        with raises(ValueError):
            build()


def test_caches_take_no_part_in_equality_hash_or_repr():
    interpreter = build_abstract_interpreter()
    specialize(interpreter, embed_src_expr(interpreter_fixture("seq2")))
    compiled(interpreter, INTERVAL)
    assert hasattr(interpreter, "_compiled") and hasattr(interpreter, "_pe_code")
    fresh = parse_met(print_met(interpreter))
    assert not hasattr(fresh, "_compiled") and not hasattr(fresh, "_pe_code")
    assert fresh == interpreter
    assert hash(fresh) == hash(interpreter)
    assert repr(fresh) == repr(interpreter)


def test_copy_and_pickle_round_trip():
    expr = parse_met("fun p -> match p with | Pair(a, b) -> aadd(a, b) | _ -> eta(0)")
    arg = VConstruct("Pair", (VAbs(_pos), VAbs(_pos)))
    apply_met_function(expr, arg, SignSet)
    assert hasattr(expr, "_compiled")
    abstract = APair(domains.Num(Interval(0, None)), APair(_pos, TOP))
    for value in (expr, abstract, BOT, embed_src_value(srclang.SPair(srclang.SInt(1), srclang.SInt(2)))):
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == value and repr(copied) == repr(value)
            assert not hasattr(copied, "__dict__") and not hasattr(copied, "_compiled")
    assert apply_met_function(copy.deepcopy(expr), arg, SignSet) == apply_met_function(expr, arg, SignSet)


def test_no_plain_frozen_dataclass_is_left_in_the_package():
    root = Path(retargeter.__file__).parent
    found = [str(path.relative_to(root)) for path in sorted(root.rglob("*.py"))
             if "@dataclass(frozen=True)" in path.read_text()]
    assert found == []


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} record checks passed over {len(EXAMPLES)} record classes")
