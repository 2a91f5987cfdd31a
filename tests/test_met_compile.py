"""The closure-compiled evaluator against the tree-walking oracle.

``tests/walker.py`` is the evaluator as a direct tree walk.  Both must
agree exactly: the same value, or the same exception class and message,
and the same number of steps, also when a small budget makes
``FuelExhausted`` fire part-way.  The equivalence harness runs meta-level
analysis and the residual through one evaluator, so it cannot catch an
evaluator bug; this comparison can.
"""

from __future__ import annotations

import itertools
import random
import sys
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walker
from astgen import NAMES, random_met_expr
from corpus import CORPUS
from retargeter import domains, retarget
from retargeter import srclang as src
from retargeter.analyzer import build_abstract_interpreter
from retargeter.domains import (
    DOMAINS,
    INTERVAL,
    SIGN,
    TOP,
    Interval,
    Num,
    SignSet,
    make_pair,
)
from retargeter.errors import FuelExhausted
from retargeter.met.interp import PRIMITIVES, apply_met_function, binder, compiled, eval_met
from retargeter.met.parser import parse_met
from retargeter.met.syntax import (
    EvalBudget,
    IntLit,
    Lambda,
    Let,
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
    Var,
    VAbs,
    VConstruct,
    VInt,
    VTuple,
)
from retargeter.srclang import SPair, embed_src_expr, embed_src_value
from retargeter.tgtlang import (
    TARGETS,
    encode_tgt_program,
    encode_tgt_value,
    interpreter_fixture,
    random_tgt_program,
)

# Fuel values stay small enough that neither evaluator nests deeper than
# the host stack allows, so running out is always the budget's doing.
FUELS = st.one_of(st.integers(1, 60), st.integers(61, 300))


def outcome(run, *args, fuel):
    """``run(*args, budget)``'s value or exception, and the steps it took."""
    budget = EvalBudget(fuel=fuel)
    try:
        result = ("value", run(*args, budget))
    except Exception as err:
        result = ("error", type(err), str(err))
    return result, budget.steps_used


def assert_same_eval(expr, env, domain, fuel):
    assert (outcome(eval_met, expr, env, domain, fuel=fuel)
            == outcome(walker.eval_met, expr, env, domain, fuel=fuel))


def assert_same_apply(fn, arg, domain, fuel):
    assert (outcome(apply_met_function, fn, arg, domain, fuel=fuel)
            == outcome(walker.apply_met_function, fn, arg, domain, fuel=fuel))


def random_value(rng: random.Random, domain, depth: int = 2):
    kinds = ["int", "abs", "nullary"]
    if depth > 0:
        kinds += ["tuple", "construct", "closure"]
    kind = rng.choice(kinds)
    if kind == "int":
        return VInt(rng.choice([0, 1, rng.randint(-99, 99)]))
    if kind == "abs":
        return VAbs(rng.choice([TOP, Num(domain.eta_int(rng.randint(-9, 9)))]))
    if kind == "nullary":
        return VConstruct("X", ())
    if kind == "tuple":
        return VTuple(random_value(rng, domain, depth - 1), random_value(rng, domain, depth - 1))
    if kind == "construct":
        return VConstruct(rng.choice(["Num", "Fst"]), (random_value(rng, domain, depth - 1),))
    # A closure value crosses from one evaluator to the other as data.
    body = random_met_expr(rng, 2)
    env = {name: random_value(rng, domain, 0) for name in rng.sample(NAMES, 3)}
    return walker.eval_met(Lambda(rng.choice(NAMES), body), env, domain)


def random_abs_input(rng: random.Random, domain):
    if domain is INTERVAL:
        lo = rng.randint(-1000, 1000)
        return Num(rng.choice([Interval(lo, lo + rng.randint(0, 50)), Interval(None, lo),
                               Interval(lo, None)]))
    signs = [s for s in domains.Sign if rng.random() < 0.5] or [domains.Sign.ZERO]
    return Num(SignSet(frozenset(signs)))


@pytest.fixture(scope="module")
def residuals():
    return {(t, d): retarget(t, DOMAINS[d]).residual for t in TARGETS for d in DOMAINS}


class TestAgainstTheWalker:
    @given(st.integers(0, 2**32), st.integers(0, 6), st.sampled_from([SIGN, INTERVAL]), FUELS)
    @settings(max_examples=400, deadline=None)
    def test_random_expressions(self, seed, depth, domain, fuel):
        rng = random.Random(seed)
        expr = random_met_expr(rng, depth)
        env = {name: random_value(rng, domain) for name in NAMES if rng.random() < 0.7}
        assert_same_eval(expr, env, domain, fuel)

    @given(st.integers(0, 2**32), st.sampled_from(TARGETS), st.sampled_from(sorted(DOMAINS)),
           st.booleans(), st.one_of(st.just(10**6), FUELS))
    @settings(max_examples=200, deadline=None)
    def test_residuals(self, residuals, seed, target, domain_name, concrete, fuel):
        rng = random.Random(seed)
        domain = DOMAINS[domain_name]
        program = encode_tgt_program(random_tgt_program(rng, target))
        if concrete:
            arg = embed_src_value(SPair(program, encode_tgt_value(rng.randint(-1000, 1000))))
        else:
            arg = VTuple(embed_src_value(program), VAbs(random_abs_input(rng, domain)))
        assert_same_apply(residuals[target, domain_name], arg, domain, fuel)

    @given(st.integers(0, 2**32), st.sampled_from(CORPUS), st.one_of(st.just(10**6), FUELS))
    @settings(max_examples=150, deadline=None)
    def test_corpus_programs(self, seed, entry, fuel):
        # Includes the abstract interpreter on both definitional
        # interpreters and on random source programs.
        i1, i2 = entry.gen(random.Random(seed))
        assert_same_apply(entry.expr, VTuple(i1, i2), entry.domain, fuel)

    def test_every_fuel_on_one_analysis(self, residuals):
        # Exhaustion fires on the same step for every budget up to the
        # run's full length, on the residual and on meta-level analysis.
        program = encode_tgt_program(random_tgt_program(random.Random(3), "seq2"))
        arg = VTuple(embed_src_value(program), VAbs(Num(Interval(-3, 8))))
        meta_arg = VTuple(embed_src_expr(interpreter_fixture("seq2")), arg)
        for fn, a in ((residuals["seq2", "interval"], arg),
                      (build_abstract_interpreter(), meta_arg)):
            budget = EvalBudget()
            walker.apply_met_function(fn, a, INTERVAL, budget)
            for fuel in range(1, budget.steps_used + 2):
                assert_same_apply(fn, a, INTERVAL, fuel)


class TestDepth:
    """Nesting deeper than the host stack is a budget failure, not a crash,
    whether it is met while compiling or while running."""

    @staticmethod
    def nested(depth: int):
        expr = Var("x")
        for _ in range(depth):
            expr = Proj1(expr)
        return expr

    def test_compiling_too_deep_an_expression(self):
        deep = self.nested(5000)
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            eval_met(deep, {"x": VInt(1)}, INTERVAL)
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            apply_met_function(Lambda("x", deep), VInt(1), INTERVAL)

    def test_compiling_nests_no_deeper_than_evaluating(self):
        # Past half the host's limit, one frame per tree level still fits,
        # as it does for the tree walk.
        depth = sys.getrecursionlimit() * 3 // 5
        lets, projections = Var("x"), Var("x")
        for _ in range(depth):
            lets, projections = Let("x", IntLit(1), lets), Proj1(projections)
        for expr, env in ((lets, {}), (projections, {"x": VAbs(TOP)})):
            assert eval_met(expr, env, INTERVAL) == walker.eval_met(expr, env, INTERVAL)

    def test_running_too_deep_a_recursion(self):
        source = "let rec f n = match n with | 0 -> 0 | m -> 1 + f (m + -1) in f"
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            eval_met(parse_met(f"{source} 100000"), {}, INTERVAL, EvalBudget(fuel=10**9))
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            apply_met_function(parse_met(f"fun k -> {source} k"), VInt(100000), INTERVAL,
                               EvalBudget(fuel=10**9))

    def test_a_shallow_tree_still_runs_after_a_deep_one_failed(self):
        deep = self.nested(5000)
        with pytest.raises(FuelExhausted):
            eval_met(deep, {"x": VInt(1)}, INTERVAL)
        tuple_ = VTuple(VInt(7), VInt(8))
        assert eval_met(self.nested(1), {"x": tuple_}, INTERVAL) == VInt(7)


class TestCompiledForm:
    def test_cached_per_node_and_domain(self):
        expr = parse_met("fun v -> aadd(v, eta(1))")
        assert compiled(expr, INTERVAL) is compiled(expr, INTERVAL)
        assert compiled(expr, SIGN) is not compiled(expr, INTERVAL)
        # An equal but distinct tree has its own code: the cache is by identity.
        # The twin is built from the constructors, since parsing the same
        # text again gives the same tree while it stays in the parser's memo.
        twin = Lambda("v", Prim(PrimOp.AADD, (Var("v"), Prim(PrimOp.ETA, (IntLit(1),)))))
        assert twin == expr and twin is not expr
        assert compiled(twin, INTERVAL) is not compiled(expr, INTERVAL)

    def test_closure_bodies_compile_once(self):
        fn = parse_met("fun v -> aadd(v, eta(1))")
        apply_met_function(fn, VAbs(TOP), INTERVAL)
        code = compiled(fn.body, INTERVAL)
        apply_met_function(fn, VAbs(TOP), INTERVAL)
        assert compiled(fn.body, INTERVAL) is code

    def test_domain_functions_are_looked_up_when_called(self, monkeypatch):
        # A tracer rebinds module attributes after code is compiled.
        fn = parse_met("fun v -> aadd(v, eta(1))")
        apply_met_function(fn, VAbs(TOP), INTERVAL)
        calls = []
        original = domains.abs_add

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(domains, "abs_add", counting)
        apply_met_function(fn, VAbs(TOP), INTERVAL)
        assert len(calls) == 1

    def test_one_primitive_table(self):
        assert set(PRIMITIVES) == set(PrimOp)
        assert PRIMITIVES[PrimOp.ADD](VInt(2), VInt(3), None) == VInt(5)


class TestSuperoperators:
    """The fused forms: a path of projections over a variable runs as one
    closure and ``eta`` of a literal is a constant.  Each must agree with
    the walker at every budget, from one step to the full run plus one,
    under both domains."""

    @staticmethod
    def assert_same_at_every_fuel(expr, env_of):
        for domain in (SIGN, INTERVAL):
            env = env_of(domain)
            _, full = outcome(walker.eval_met, expr, env, domain, fuel=10**6)
            for fuel in range(1, full + 2):
                assert_same_eval(expr, env, domain, fuel)

    @staticmethod
    def paths(max_length: int = 5):
        """Every projection path over ``x`` of 1 to ``max_length`` levels."""
        for length in range(1, max_length + 1):
            for bits in range(2 ** length):
                expr = Var("x")
                for level in range(length):
                    expr = (Proj1 if bits >> level & 1 else Proj2)(expr)
                yield expr

    @staticmethod
    def tuple_tree(depth: int, leaf):
        """A full tree of ``VTuple`` of ``depth`` levels over ``leaf(i)``."""
        counter = iter(range(2 ** depth))

        def build(d):
            if d == 0:
                return leaf(next(counter))
            return VTuple(build(d - 1), build(d - 1))
        return build(depth)

    @staticmethod
    def abstract_tree(domain):
        """Pairs whose components differ, with ``TOP``, numbers and a
        ``BOT`` reached by projecting past a number."""
        def num(n):
            return Num(domain.eta_int(n))
        inner = make_pair(make_pair(num(-4), TOP), make_pair(num(0), num(9)))
        return make_pair(inner, make_pair(TOP, make_pair(num(3), num(-2))))

    def test_paths_over_tuples(self):
        tree = self.tuple_tree(5, VInt)
        for expr in self.paths():
            self.assert_same_at_every_fuel(expr, lambda d: {"x": tree})

    @pytest.mark.parametrize("top", ["pair", "top", "num", "bot"])
    def test_paths_over_abstract_values(self, top):
        def env_of(domain):
            value = {"pair": self.abstract_tree(domain), "top": TOP,
                     "num": Num(domain.eta_int(5)), "bot": domains.BOT}[top]
            return {"x": VAbs(value)}
        for expr in self.paths():
            self.assert_same_at_every_fuel(expr, env_of)

    def test_paths_over_tuples_of_abstract_values(self):
        for depth in (1, 2, 3):
            def env_of(domain):
                pairs = [VAbs(self.abstract_tree(domain)), VAbs(TOP),
                         VAbs(Num(domain.eta_int(-1))), VAbs(domains.BOT)]
                return {"x": self.tuple_tree(depth, lambda i: pairs[i % 4])}
            for expr in self.paths():
                self.assert_same_at_every_fuel(expr, env_of)

    @pytest.mark.parametrize("stuck_at", range(5))
    @pytest.mark.parametrize("leaf", [VInt(3), VConstruct("X", ())])
    def test_a_non_tuple_at_each_level_is_stuck(self, stuck_at, leaf):
        value = leaf
        for _ in range(stuck_at):
            value = VTuple(value, value)
        for expr in self.paths():
            self.assert_same_at_every_fuel(expr, lambda d: {"x": value})

    def test_unbound_variable(self):
        for expr in self.paths(3):
            self.assert_same_at_every_fuel(expr, lambda d: {"y": VInt(1)})

    def test_path_in_a_let_body(self):
        expr = parse_met("let y = (1, (x, 3)) in snd (fst (snd y))")
        for value in (VTuple(VInt(4), VInt(5)), VInt(4)):
            self.assert_same_at_every_fuel(expr, lambda d: {"x": value})
        self.assert_same_at_every_fuel(expr, lambda d: {"x": VAbs(self.abstract_tree(d))})

    def test_path_in_a_closure_body_applied_twice(self):
        expr = parse_met("let f = fun p -> snd (fst (snd p)) in (f x, f (1, (x, x)))")
        for env_of in (lambda d: {"x": VAbs(self.abstract_tree(d))},
                       lambda d: {"x": self.tuple_tree(3, VInt)},
                       lambda d: {"x": VInt(7)}):
            self.assert_same_at_every_fuel(expr, env_of)

    @pytest.mark.parametrize("n", [-1, 0, 7])
    def test_eta_of_a_literal(self, n):
        for text in (f"eta({n})", f"aadd(x, eta({n}))", f"(eta({n}), eta({n}))"):
            self.assert_same_at_every_fuel(parse_met(text),
                                           lambda d: {"x": VAbs(Num(d.eta_int(2)))})


class TestMetaSuperoperators:
    """The fused forms on meta-level analysis's hot paths: an application
    of a variable runs as one closure, and so does one to a pair of leaves
    (variables or projection paths over one); a match on a leaf reads it
    inline; a match branch whose pattern is a variable, or a constructor
    over variables and wildcards, extends the environment directly.  Each
    must agree with the walker at every budget, from one step to the full
    run plus one, under both domains."""

    at_every_fuel = staticmethod(TestSuperoperators.assert_same_at_every_fuel)

    @staticmethod
    def match_x(*branches, on="x"):
        """``match x with`` (or ``match on with``, for the text of a
        scrutinee) the given branches, each a pattern and the text of its
        body.  Built directly, since the parser accepts only the source
        language's constructors, each at its own arity."""
        return Match(parse_met(on), tuple((pat, parse_met(body)) for pat, body in branches))

    @staticmethod
    def con(tag, *args):
        """A constructor pattern; a string argument is a variable, or a
        wildcard if it is ``_``."""
        return PConstruct(tag, tuple(
            (PWild() if a == "_" else PVar(a)) if isinstance(a, str) else a for a in args))

    @pytest.mark.parametrize("text", [
        "let f = fun y -> (y, x) in f (fst x)",
        "let f = fun y -> (y, x) in (f 1, f (f 2))",
        "let x = 5 in let f = fun y -> x in let x = 6 in f x",
        "let f = fun f -> f in f f",
    ])
    def test_applying_a_closure(self, text):
        for value in (VTuple(VInt(1), VInt(2)), VInt(3)):
            self.at_every_fuel(parse_met(text), lambda d: {"x": value})

    @pytest.mark.parametrize("text", [
        "let rec g n = match n with | 0 -> 7 | m -> g 0 in g x",
        "let rec g n = match n with | 0 -> (g, 7) | m -> g (snd (m, 0)) in snd (g x)",
        "let rec g n = n in let h = g in (h 1, g 2)",
    ])
    def test_applying_a_recursive_closure(self, text):
        for value in (VInt(0), VInt(4), VTuple(VInt(0), VInt(0))):
            self.at_every_fuel(parse_met(text), lambda d: {"x": value})

    @pytest.mark.parametrize("text", ["f (fst y)", "f 3", "f (g 1)", "(f 1, 2)"])
    def test_applying_a_non_function(self, text):
        # The argument is evaluated, and may get stuck, before the
        # function is tested.
        for f in (VInt(1), VConstruct("X", ()), VAbs(TOP), VTuple(VInt(1), VInt(2))):
            self.at_every_fuel(parse_met(text), lambda d: {"f": f, "y": VInt(2)})

    @pytest.mark.parametrize("text", ["g 3", "g (fst y)", "(1, g 3)", "f (g 3)"])
    def test_applying_an_unbound_variable(self, text):
        identity = walker.eval_met(parse_met("fun z -> z"), {}, SIGN)
        self.at_every_fuel(parse_met(text), lambda d: {"f": identity, "y": VInt(2)})

    def test_wrong_arity_falls_through(self):
        con = self.con
        expr = self.match_x((con("C", "a"), "a"), (con("C", "a", "b"), "(b, a)"),
                            (con("C", "_", "_", "_"), "0"), (con("C", "a", "a"), "a"),
                            (PVar("v"), "1"))
        for args in ((), (VInt(1),), (VInt(1), VInt(2)), (VInt(1), VInt(2), VInt(3)),
                     (VInt(1), VInt(2), VInt(3), VInt(4))):
            self.at_every_fuel(expr, lambda d: {"x": VConstruct("C", args), "a": VInt(9)})

    def test_wrong_arity_with_no_later_branch_is_stuck(self):
        expr = self.match_x((self.con("C", "a"), "a"), (self.con("D"), "0"))
        for value in (VConstruct("C", ()), VConstruct("C", (VInt(1), VInt(2))),
                      VConstruct("D", (VInt(1),)), VConstruct("E", ()), VInt(0)):
            self.at_every_fuel(expr, lambda d: {"x": value})

    def test_later_bindings_win(self):
        expr = self.match_x((self.con("C", "a", "a"), "(a, b)"),
                            (self.con("D", "a", "_", "a"), "a"))
        for value in (VConstruct("C", (VInt(1), VInt(2))),
                      VConstruct("D", (VInt(1), VInt(2), VInt(3)))):
            self.at_every_fuel(expr, lambda d: {"x": value, "a": VInt(8), "b": VInt(9)})

    def test_zero_argument_and_wildcard_constructor_patterns(self):
        con = self.con
        expr = self.match_x((con("X"), "1"), (con("C", "_", "_"), "2"), (con("D", "_", "y"), "y"),
                            (con("D", "y", "_", "_"), "y"), (con("E", "_"), "y"))
        for value in (VConstruct("X", ()), VConstruct("X", (VInt(5),)),
                      VConstruct("C", (VInt(5), VInt(6))), VConstruct("C", (VInt(5),)),
                      VConstruct("D", (VInt(5), VInt(6))),
                      VConstruct("D", (VInt(5), VInt(6), VInt(7))),
                      VConstruct("E", (VInt(5),)), VConstruct("E", ())):
            self.at_every_fuel(expr, lambda d: {"x": value, "y": VInt(3)})

    def test_a_variable_branch_after_constructor_branches(self):
        con = self.con
        expr = self.match_x((con("A", "a"), "a"), (con("B"), "0"), (PVar("w"), "(w, w)"),
                            (PWild(), "5"))
        for value in (VConstruct("A", (VInt(1),)), VConstruct("A", ()), VConstruct("B", ()),
                      VConstruct("C", (VInt(1),)), VInt(4), VTuple(VInt(1), VInt(2))):
            self.at_every_fuel(expr, lambda d: {"x": value, "w": VInt(7)})

    def test_other_patterns_keep_their_matcher(self):
        con = self.con
        expr = self.match_x((con("C", PTuple(PVar("a"), PVar("b")), PInt(0)), "(a, b)"),
                            (con("C", "a", PInt(1)), "a"), (PTuple(PVar("p"), PVar("q")), "q"),
                            (PInt(3), "4"), (con("C", "z", "_"), "z"))
        for value in (VConstruct("C", (VTuple(VInt(1), VInt(2)), VInt(0))),
                      VConstruct("C", (VInt(1), VInt(1))), VConstruct("C", (VInt(1), VInt(2))),
                      VTuple(VInt(1), VInt(2)), VInt(3), VInt(5)):
            self.at_every_fuel(expr, lambda d: {"x": value})

    def test_nested_patterns_check_their_own_shape(self):
        # A pattern nested in a tuple or constructor pattern is reached
        # without tag dispatch, so its binder checks its own tag, arity,
        # integer or tuple shape.
        con = self.con
        expr = self.match_x((PTuple(con("C", "a"), PVar("b")), "(a, b)"),
                            (PTuple(con("D", PInt(1), "a"), PVar("b")), "(b, a)"),
                            (PTuple(con("D", "_", "a"), PInt(2)), "a"),
                            (con("C", con("C", "a", "a"), PTuple(PVar("b"), PWild())), "(a, b)"),
                            (PTuple(PVar("a"), PVar("a")), "a"),
                            (con("E", PInt(1)), "1"))

        def cv(*args):
            return VConstruct("C", args)

        def dv(*args):
            return VConstruct("D", args)

        one, two, three = VInt(1), VInt(2), VInt(3)
        pair = VTuple(three, VInt(4))
        for value in (VTuple(cv(one), VInt(5)), VTuple(cv(), VInt(5)), VTuple(one, VInt(5)),
                      VTuple(dv(one, two), two), VTuple(dv(one, two), three),
                      VTuple(dv(one), two), VTuple(cv(one, two), two),
                      VTuple(dv(one, three), two), cv(cv(one, two), pair), cv(cv(one), pair),
                      cv(cv(one, two), three), cv(dv(one, two), pair), VConstruct("E", (one,)),
                      VConstruct("E", (pair,)), VInt(7)):
            self.at_every_fuel(expr, lambda d: {"x": value})

    def test_a_binder_is_compiled_once_and_writes_no_environment(self):
        pat = PTuple(self.con("C", "a"), PInt(1))
        assert binder(pat) is binder(pat)
        env = {"a": VInt(0)}
        assert binder(pat)(VTuple(VConstruct("C", (VInt(5),)), VInt(1)), env) == {"a": VInt(5)}
        assert binder(pat)(VTuple(VConstruct("C", (VInt(5),)), VInt(2)), env) is None
        assert binder(self.con("C", "_"))(VConstruct("C", (VInt(5),)), env) is env
        assert env == {"a": VInt(0)}

    def test_a_branch_binds_only_in_its_body(self):
        # The enclosing environment is shared with the tuple's second
        # component, which must not see the branch's bindings; each
        # evaluator gets its own copy, and the caller's is left as it was.
        for pat in (PVar("a"), self.con("C", "a"), self.con("C", "_"), PWild()):
            expr = Tuple(self.match_x((pat, "0")), Var("a"))
            for value in (VConstruct("C", (VInt(1),)), VInt(2)):
                for domain in (SIGN, INTERVAL):
                    for fuel in range(1, 6):
                        env = {"x": value}
                        assert (outcome(eval_met, expr, env, domain, fuel=fuel)
                                == outcome(walker.eval_met, expr, {"x": value}, domain,
                                           fuel=fuel))
                        assert env == {"x": value}

    def test_a_read_only_environment(self):
        expr = self.match_x((self.con("C", "a"), "(a, y)"),
                            (PVar("v"), "let f = fun z -> v in f y"))
        for value in (VConstruct("C", (VInt(1),)), VInt(2)):
            self.at_every_fuel(expr, lambda d: MappingProxyType({"x": value, "y": VInt(3)}))

    @pytest.mark.parametrize("text", ["fst x", "snd x", "(fst x, snd x)", "fst (snd x)"])
    def test_one_projection(self, text):
        for env_of in (lambda d: {"x": VTuple(VInt(1), VTuple(VInt(2), VInt(3)))},
                       lambda d: {"x": VAbs(TestSuperoperators.abstract_tree(d))},
                       lambda d: {"x": VAbs(TOP)},
                       lambda d: {"x": VAbs(Num(d.eta_int(4)))},
                       lambda d: {"x": VInt(4)},
                       lambda d: {"y": VInt(4)}):
            self.at_every_fuel(parse_met(text), env_of)

    # Leaves of a fused pair call: a variable, one projection, and a path
    # of three.
    LEAVES = ("y", "fst x", "snd (fst (snd x))")

    @staticmethod
    def leaf_values(domain):
        """Values for ``x`` and ``y``: tuples, every kind of abstract value,
        an integer and a constructor."""
        tree = TestSuperoperators.abstract_tree(domain)
        return (TestSuperoperators.tuple_tree(3, VInt), VAbs(tree), VAbs(TOP),
                VAbs(Num(domain.eta_int(5))), VAbs(domains.BOT), VInt(3), VConstruct("X", ()),
                VTuple(VAbs(tree), VTuple(VTuple(VInt(1), VAbs(TOP)), VInt(2))))

    @pytest.mark.parametrize("a,b", list(itertools.product(LEAVES, repeat=2)))
    def test_applying_a_closure_to_a_pair_of_leaves(self, a, b):
        swap = "let f = fun p -> (snd p, fst p) in "
        recursive = "let rec f p = match fst p with | 0 -> p | m -> f (0, snd p) in "
        for k in range(8):
            def env_of(d, k=k):
                values = self.leaf_values(d)
                return {"x": values[k], "y": values[(k + 3) % len(values)]}
            for prefix in (swap, recursive):
                self.at_every_fuel(parse_met(f"{prefix}f ({a}, {b})"), env_of)

    @pytest.mark.parametrize("text", [
        "f (z, x)", "f (x, z)", "f (fst z, x)", "f (x, snd (fst z))", "f (fst x, z)",
        "f (snd (snd (fst x)), fst (fst z))", "g (x, fst x)", "g (fst x, z)"])
    def test_an_unbound_leaf_or_function_in_a_pair_call(self, text):
        identity = walker.eval_met(parse_met("fun p -> p"), {}, SIGN)
        for k in range(8):
            self.at_every_fuel(parse_met(text),
                               lambda d, k=k: {"f": identity, "x": self.leaf_values(d)[k]})

    @pytest.mark.parametrize("text", ["f (x, fst x)", "f (snd (fst (snd x)), y)",
                                      "f (fst x, snd (fst z))"])
    def test_applying_a_non_function_to_a_pair_of_leaves(self, text):
        for f in (VInt(1), VConstruct("X", ()), VAbs(TOP), VTuple(VInt(1), VInt(2))):
            for k in range(8):
                def env_of(d, k=k, f=f):
                    return {"f": f, "x": self.leaf_values(d)[k], "y": VInt(2)}
                self.at_every_fuel(parse_met(text), env_of)

    @pytest.mark.parametrize("text", ["f (fst x, y)", "f (y, snd (fst (snd x)))",
                                      "f (snd (fst (snd x)), z)", "f (fst x, fst y)",
                                      "f (fst x, snd x)", "g (fst x, snd (fst (snd x)))",
                                      "match snd (fst (snd x)) with | w -> w",
                                      "snd (fst (snd x))"])
    def test_abs_proj_calls_are_those_of_the_walker(self, text, monkeypatch):
        # A tracer that rebinds ``abs_proj`` counts every projection of an
        # abstract value, also where a fused form meets one and runs its
        # node-by-node code instead, and where the fuel runs out.
        calls = []
        original = domains.abs_proj

        def counting(a, first):
            calls.append(first)
            return original(a, first)

        monkeypatch.setattr(domains, "abs_proj", counting)
        identity = walker.eval_met(parse_met("fun p -> p"), {}, SIGN)
        expr = parse_met(text)
        for domain in (SIGN, INTERVAL):
            tree = TestSuperoperators.abstract_tree(domain)
            for x, y in ((VAbs(tree), VInt(1)), (VAbs(TOP), VInt(1)),
                         (VTuple(VAbs(tree), VAbs(tree)), VAbs(tree))):
                env = {"f": identity, "g": VInt(1), "x": x, "y": y}
                _, full = outcome(walker.eval_met, expr, env, domain, fuel=10**6)
                for fuel in range(1, full + 2):
                    counts = []
                    for run in (eval_met, walker.eval_met):
                        calls.clear()
                        result = outcome(run, expr, env, domain, fuel=fuel)
                        counts.append((result, list(calls)))
                    assert counts[0] == counts[1]

    PATH_SCRUTINEES = ("fst x", "snd (fst (snd x))")

    def at_every_fuel_on_a_path(self, branches, values, extra=None):
        """``match`` on each path scrutinee, with each value placed where
        the path reads it, at every fuel; also over an abstract value, an
        unbound variable and a non-tuple."""
        for on in self.PATH_SCRUTINEES:
            expr = self.match_x(*branches, on=on)
            for value in values:
                x = value
                for step in on.replace("(", "").split()[:-1]:     # outermost first
                    x = VTuple(x, VInt(0)) if step == "fst" else VTuple(VInt(0), x)
                assert walker.eval_met(parse_met(on), {"x": x}, SIGN) == value
                self.at_every_fuel(expr, lambda d, x=x: {"x": x, **(extra or {})})
            for env_of in (lambda d: {"x": VAbs(TestSuperoperators.abstract_tree(d))},
                           lambda d: {"y": VInt(1)}, lambda d: {"x": VInt(4)}):
                self.at_every_fuel(expr, env_of)

    def test_a_match_on_a_path_binds_inline(self):
        con = self.con
        self.at_every_fuel_on_a_path(
            ((con("C", "a", "b"), "(b, a)"), (con("D"), "0"), (con("E", "_", "a", "_"), "a"),
             (PVar("w"), "w")),
            (VConstruct("C", (VInt(1), VInt(2))), VConstruct("D", ()),
             VConstruct("E", (VInt(1), VInt(2), VInt(3))), VConstruct("F", ()), VInt(5)))

    def test_a_match_on_a_path_with_a_wrong_arity_falls_through(self):
        con = self.con
        self.at_every_fuel_on_a_path(
            ((con("C", "a"), "a"), (con("C", "a", "b"), "(b, a)"), (con("D", "a"), "a")),
            (VConstruct("C", (VInt(1),)), VConstruct("C", (VInt(1), VInt(2))),
             VConstruct("C", ()), VConstruct("D", (VInt(1), VInt(2)))))

    @pytest.mark.parametrize("first", [PVar("v"), PWild(), PInt(3),
                                       PTuple(PVar("p"), PVar("q"))])
    def test_an_earlier_other_pattern_wins_over_an_inline_branch(self, first):
        con = self.con
        self.at_every_fuel_on_a_path(
            ((first, "(7, 7)"), (con("C", "a"), "a"), (con("D"), "8")),
            (VConstruct("C", (VInt(1),)), VConstruct("D", ()), VInt(3), VInt(4),
             VTuple(VInt(1), VInt(2))), extra={"v": VInt(9)})

    def test_a_match_on_a_path_later_bindings_win(self):
        self.at_every_fuel_on_a_path(
            ((self.con("C", "a", "a"), "(a, b)"),),
            (VConstruct("C", (VInt(1), VInt(2))),), extra={"a": VInt(8), "b": VInt(9)})

    def test_a_match_on_a_path_with_nested_patterns(self):
        con = self.con
        self.at_every_fuel_on_a_path(
            ((con("C", con("D", "a"), "b"), "(a, b)"), (con("C", "a", "b"), "b"),
             (con("D", PInt(1)), "1"), (con("D", "a"), "a")),
            (VConstruct("C", (VConstruct("D", (VInt(1),)), VInt(2))),
             VConstruct("C", (VInt(1), VInt(2))), VConstruct("D", (VInt(1),)),
             VConstruct("D", (VInt(2),))))

    def test_a_match_on_a_path_with_no_matching_branch(self):
        self.at_every_fuel_on_a_path(
            ((self.con("C", "a"), "a"), (PInt(0), "0")),
            (VConstruct("D", ()), VConstruct("C", ()), VInt(1), VTuple(VInt(0), VInt(0))))

    @pytest.mark.parametrize("program", [
        src.X(), src.Add(src.X(), src.Num(2)),
        src.If(src.Fst(src.X()), src.Snd(src.X()), src.Num(0)),
        src.Pair(src.Mul(src.Num(3), src.Fst(src.X())), src.Eq(src.X(), src.X())),
    ], ids=["x", "add", "if", "pair"])
    def test_meta_level_analysis(self, program):
        """The abstract interpreter, whose hot paths these are, at every fuel."""
        interpreter = build_abstract_interpreter()
        embedded = embed_src_expr(program)
        for domain in (SIGN, INTERVAL):
            for value in (VInt(5), VTuple(VInt(-2), VInt(3))):
                arg = VTuple(embedded, value)
                _, full = outcome(walker.apply_met_function, interpreter, arg, domain,
                                  fuel=10**6)
                for fuel in range(1, full + 2):
                    assert_same_apply(interpreter, arg, domain, fuel)
