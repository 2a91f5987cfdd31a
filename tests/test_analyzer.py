"""The abstract interpreter program and the meta-level analysis entry points."""

from __future__ import annotations

import random

import pytest

import walker
from retargeter import analyzer
from retargeter.analyzer import (
    abstract_target_input,
    analyze_meta,
    analyze_meta_abstract,
    analyze_meta_target,
    build_abstract_interpreter,
)
from retargeter.domains import (
    APair,
    INTERVAL,
    Interval,
    Num,
    SIGN,
    Sign,
    SignSet,
    TOP,
    contains,
    leq,
    met_value_to_abs,
)
from retargeter.errors import FuelExhausted, StuckError
from retargeter.met.printer import count_nodes
from retargeter.met.syntax import EvalBudget, Match, VConstruct, VInt, VTuple
from retargeter.srclang import (
    Add,
    Mul,
    Num as SrcNum,
    SInt,
    SPair,
    X,
    embed_src_expr,
    embed_src_value,
    eval_src,
    random_src_expr,
    random_src_value,
    shape_of,
)
from retargeter.tgtlang import (
    TARGETS,
    encode_tgt_program,
    encode_tgt_value,
    eval_tgt,
    interpreter_fixture,
    parse_tgt_program,
    random_tgt_program,
)


def _find_match(expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Match):
            return node
        for attr in ("fst", "snd", "arg", "scrutinee", "bound", "body", "fun_body", "fun"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, str):
                stack.append(child)
        for child in getattr(node, "args", ()):
            stack.append(child)
        for _, body in getattr(node, "branches", ()):
            stack.append(body)
    return None


# Inputs that are not abstract values: the analyses reject each of them.
NOT_ABSTRACT = ["top", VInt(3), VTuple(VInt(1), VInt(2)), APair(TOP, 7)]


class TestInterpreterProgram:
    def test_single_match_with_nine_branches(self):
        program = build_abstract_interpreter()
        assert count_nodes(program).get("Match") == 1
        match = _find_match(program)
        assert len(match.branches) == 9

    def test_deterministic(self):
        assert build_abstract_interpreter() == build_abstract_interpreter()

    def test_literal_arm(self):
        # Analyzing the program "5" abstracts the literal, whatever the input.
        assert analyze_meta(INTERVAL, SrcNum(5), SInt(99)) == Num(Interval(5, 5))

    def test_input_arm(self):
        assert analyze_meta(INTERVAL, X(), SInt(7)) == Num(Interval(7, 7))


class TestAnalyzeMeta:
    def test_addition_is_exact_on_singletons(self):
        assert analyze_meta(INTERVAL, Add(SrcNum(1), X()), SInt(2)) == Num(Interval(3, 3))

    def test_sign_of_product(self):
        got = analyze_meta(SIGN, Mul(SrcNum(-3), X()), SInt(5))
        assert got == Num(SignSet.of(Sign.NEG))
        assert contains(got, SInt(-15))

    def test_interpreter_fixture_instance(self):
        fixture = interpreter_fixture("single")
        src_input = SPair(SPair(SInt(0), SInt(42)), SInt(5))
        assert analyze_meta(INTERVAL, fixture, src_input) == Num(Interval(47, 47))

    def test_fuel_is_enforced(self):
        with pytest.raises(FuelExhausted):
            analyze_meta(INTERVAL, X(), SInt(0), EvalBudget(fuel=3))

    def test_too_deep_a_source_program_runs_out_of_budget(self):
        # Embedding recurses one host frame per level of the program.
        program = X()
        for _ in range(1200):
            program = Add(SrcNum(1), program)
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            analyze_meta(INTERVAL, program, SInt(1))
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            analyze_meta_abstract(INTERVAL, program, TOP)

    def test_soundness_fuzz_both_domains(self):
        # For random well-shaped programs, the analysis contains the
        # concrete result whenever concrete evaluation succeeds.
        rng = random.Random(23)
        checked = 0
        for _ in range(1000):
            value = random_src_value(rng, 2, 100)
            program = random_src_expr(rng, shape_of(value), depth=4,
                                      want=rng.choice(["int", ("pair", "int", "int")]))
            try:
                concrete = eval_src(program, value)
            except StuckError:
                continue
            for domain in (INTERVAL, SIGN):
                assert contains(analyze_meta(domain, program, value), concrete), (
                    program, value, concrete)
            checked += 1
        assert checked > 900

    @pytest.mark.parametrize("target", ["single", "seq2"])
    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    def test_meta_level_target_analysis_is_sound(self, domain, target):
        fixture = interpreter_fixture(target)
        rng = random.Random(29)
        for _ in range(300):
            program = random_tgt_program(rng, target)
            value = rng.randint(-1000, 1000)
            src_input = SPair(encode_tgt_program(program), encode_tgt_value(value))
            result = analyze_meta(domain, fixture, src_input)
            assert contains(result, encode_tgt_value(eval_tgt(program, value)))


class TestAnalyzeMetaTarget:
    """``analyze_meta_target`` is ``analyze_meta`` over the target's
    definitional interpreter, with the interpreter embedded once."""

    @staticmethod
    def outcome(run, *args, fuel):
        budget = EvalBudget(fuel=fuel)
        try:
            result = ("value", run(*args, budget))
        except Exception as err:
            result = ("error", type(err), str(err))
        return result, budget.steps_used

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    def test_equals_analyze_meta(self, domain, target):
        fixture = interpreter_fixture(target)
        rng = random.Random(31)
        for _ in range(40):
            program = random_tgt_program(rng, target)
            value = rng.randint(-1000, 1000)
            src_input = SPair(encode_tgt_program(program), encode_tgt_value(value))
            _, full = self.outcome(analyze_meta_target, domain, program, value, fuel=10**6)
            for fuel in {1, 2, 3, rng.randint(4, full), full - 1, full, full + 1}:
                assert (self.outcome(analyze_meta_target, domain, program, value, fuel=fuel)
                        == self.outcome(analyze_meta, domain, fixture, src_input, fuel=fuel))

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    def test_abstract_input_equals_analyze_meta_abstract(self, domain, target):
        fixture = interpreter_fixture(target)
        rng = random.Random(41)
        for _ in range(20):
            program = random_tgt_program(rng, target)
            lo = rng.randint(-1000, 1000)
            for value in (TOP, Num(domain.eta_int(lo)),
                          Num(domain.join(domain.eta_int(lo), domain.eta_int(lo + 7)))):
                arg = abstract_target_input(domain, encode_tgt_program(program), value)
                _, full = self.outcome(analyze_meta_target, domain, program, value, fuel=10**6)
                for fuel in {1, rng.randint(2, full), full - 1, full}:
                    assert (self.outcome(analyze_meta_target, domain, program, value, fuel=fuel)
                            == self.outcome(analyze_meta_abstract, domain, fixture, arg, fuel=fuel))

    def test_abstract_input_of_the_other_domain(self):
        program = random_tgt_program(random.Random(43), "single")
        with pytest.raises(ValueError, match="of the 'interval' domain"):
            analyze_meta_target(SIGN, program, Num(Interval(1, 2)))

    @pytest.mark.parametrize("domain", [SIGN, INTERVAL], ids=["sign", "interval"])
    @pytest.mark.parametrize("value", NOT_ABSTRACT, ids=repr)
    def test_an_input_that_is_not_abstract_is_rejected(self, domain, value):
        # An int is a concrete input here, and is abstracted first.
        with pytest.raises(ValueError, match="is not an abstract value"):
            analyze_meta_target(domain, parse_tgt_program("add 1"), value)

    def test_one_embedding_per_target(self):
        rng = random.Random(37)
        for target in TARGETS:
            for domain in (INTERVAL, SIGN):
                analyze_meta_target(domain, random_tgt_program(rng, target), 1)
            assert analyzer._embedded_interpreter(target) is analyzer._embedded_interpreter(target)
        assert analyzer._embedded_interpreter.cache_info().currsize <= len(TARGETS)

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    def test_the_memo_agrees_with_the_walker_at_every_fuel(self, domain, target):
        # The walker has no memo and runs every repeated evalabs call.
        rng = random.Random(47)
        program = random_tgt_program(rng, target)
        value = rng.randint(-1000, 1000)
        arg = VTuple(embed_src_expr(interpreter_fixture(target)),
                     embed_src_value(SPair(encode_tgt_program(program), encode_tgt_value(value))))

        def walk(budget):
            return met_value_to_abs(walker.apply_met_function(
                build_abstract_interpreter(), arg, domain, budget))
        _, full = self.outcome(walk, fuel=10**6)
        for fuel in range(1, full + 2):
            assert (self.outcome(analyze_meta_target, domain, program, value, fuel=fuel)
                    == self.outcome(walk, fuel=fuel))

    def test_each_analysis_has_its_own_memo(self):
        class Watched(EvalBudget):
            """A budget that records each memo given to it."""

            def __init__(self, fuel):
                super().__init__(fuel)
                self.given = []

            @property
            def memo(self):
                return self.__dict__.get("_memo")

            @memo.setter
            def memo(self, value):
                if value is not None:
                    assert value == {}
                    self.given.append(value)
                self.__dict__["_memo"] = value

        program = random_tgt_program(random.Random(53), "seq2")
        once = EvalBudget()
        analyze_meta_target(INTERVAL, program, 7, once)
        budget = Watched(10**6)
        for _ in range(3):
            analyze_meta_target(INTERVAL, program, 7, budget)
            assert budget.memo is None
        assert budget.steps_used == 3 * once.steps_used
        assert len({id(m) for m in budget.given}) == 3
        # One entry per distinct evalabs call: the interpreter's 18
        # distinct subtrees.
        assert [len(m) for m in budget.given] == [18] * 3
        starved = Watched(100)
        with pytest.raises(FuelExhausted):
            analyze_meta_target(INTERVAL, program, 7, starved)
        assert starved.memo is None and len(starved.given) == 1

    @pytest.mark.parametrize("target, nodes, distinct", [("single", 18, 10), ("seq2", 59, 18)])
    def test_the_embedding_shares_equal_subtrees(self, target, nodes, distinct):
        # Equal subtrees are one object, so the evaluator's pair-call memo,
        # keyed by identity, hits on them.
        shared = analyzer._embedded_interpreter(target)
        assert shared == embed_src_expr(interpreter_fixture(target))
        found, stack = [], [shared]
        while stack:
            node = stack.pop()
            if type(node) is VConstruct:
                found.append(node)
                stack.extend(node.args)
        assert len(found) == nodes
        assert len({id(n) for n in found}) == len(set(found)) == distinct


class TestAnalyzeMetaAbstract:
    def test_identity_program(self):
        got = analyze_meta_abstract(INTERVAL, X(), Num(Interval(0, 10)))
        assert got == Num(Interval(0, 10))

    def test_worked_example_interval(self):
        fixture = interpreter_fixture("single")
        program_abs = abstract_target_input(
            INTERVAL, encode_tgt_program(parse_tgt_program("add 42")), Num(Interval(0, 10))
        )
        got = analyze_meta_abstract(INTERVAL, fixture, program_abs)
        assert got == Num(Interval(42, 52))

    def test_sign_of_scaled_negatives(self):
        fixture = interpreter_fixture("single")
        program_abs = abstract_target_input(
            SIGN, encode_tgt_program(parse_tgt_program("mul 42")), Num(SignSet.of(Sign.NEG))
        )
        got = analyze_meta_abstract(SIGN, fixture, program_abs)
        for i in range(-20, 0):
            assert contains(got, SInt(eval_tgt(parse_tgt_program("mul 42"), i)))

    @pytest.mark.parametrize("domain, abstract_input, other", [
        (SIGN, Num(Interval(1, 2)), "interval"),
        (INTERVAL, Num(SignSet.of(Sign.POS)), "sign"),
        (SIGN, APair(Num(Interval(1, 2)), TOP), "interval"),
        (INTERVAL, APair(TOP, Num(SignSet.top())), "sign"),
    ], ids=["interval-into-sign", "sign-into-interval", "nested-interval", "nested-sign"])
    def test_input_of_the_other_domain_is_rejected(self, domain, abstract_input, other):
        message = f"of the '{other}' domain but the analysis is of the '{domain.name}' domain"
        with pytest.raises(ValueError, match=message):
            analyze_meta_abstract(domain, X(), abstract_input)

    @pytest.mark.parametrize("domain", [SIGN, INTERVAL], ids=["sign", "interval"])
    @pytest.mark.parametrize("value", [7, *NOT_ABSTRACT], ids=repr)
    def test_an_input_that_is_not_abstract_is_rejected(self, domain, value):
        # Not taken for data, nor blamed on the program as a stuck evaluation.
        with pytest.raises(ValueError, match="is not an abstract value"):
            analyze_meta_abstract(domain, X(), value)

    def test_soundness_on_small_concretizations(self):
        # Exhaustive membership over bounded intervals.
        rng = random.Random(31)
        for _ in range(200):
            lo = rng.randint(-8, 8)
            hi = lo + rng.randint(0, 4)
            value_shape_int = rng.random() < 0.6
            if value_shape_int:
                abstract = Num(Interval(lo, hi))
                members = [SInt(n) for n in range(lo, hi + 1)]
            else:
                abstract = APair(Num(Interval(lo, hi)), Num(Interval(0, 1)))
                members = [SPair(SInt(n), SInt(b))
                           for n in range(lo, hi + 1) for b in (0, 1)]
            shape = shape_of(members[0])
            program = random_src_expr(rng, shape, depth=3)
            result = analyze_meta_abstract(INTERVAL, program, abstract)
            for member in members:
                assert contains(result, eval_src(program, member)), (
                    program, abstract, member)

    def test_monotone_in_the_input(self):
        rng = random.Random(37)
        for _ in range(300):
            lo = rng.randint(-20, 20)
            hi = lo + rng.randint(0, 10)
            small = Num(Interval(lo, hi))
            big = Num(Interval(lo - rng.randint(0, 5), hi + rng.randint(0, 5)))
            program = random_src_expr(rng, "int", depth=4)
            out_small = analyze_meta_abstract(INTERVAL, program, small)
            out_big = analyze_meta_abstract(INTERVAL, program, big)
            assert leq(out_small, out_big), (program, small, big)

    def test_eta_of_encoded_program_matches_structural_eta(self):
        encoded = encode_tgt_program(parse_tgt_program("add 42"))
        # add 42 encodes as (0, 42).
        assert abstract_target_input(INTERVAL, encoded, Num(Interval(0, 10))) == APair(
            APair(Num(Interval(0, 0)), Num(Interval(42, 42))), Num(Interval(0, 10))
        )
