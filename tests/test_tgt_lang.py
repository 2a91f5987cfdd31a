"""Target languages: semantics, encoders/decoders, interpreter fixtures."""

from __future__ import annotations

import random

import pytest

from retargeter.errors import DecodeError, ParseError
from retargeter.srclang import SInt, SPair, eval_src
from retargeter.tgtlang import (
    AddN,
    MulN,
    Seq2,
    Single,
    decode_tgt_program,
    decode_tgt_value,
    encode_tgt_program,
    encode_tgt_value,
    eval_tgt,
    interpreter_fixture,
    parse_tgt_program,
    print_tgt_program,
    random_tgt_program,
    target_of,
)


class TestEval:
    def test_add(self):
        assert eval_tgt(Single(AddN(42)), 5) == 47

    def test_mul_by_zero(self):
        assert eval_tgt(Single(MulN(42)), 0) == 0

    def test_sequence_composes(self):
        # (4 + 1) * 3
        assert eval_tgt(Seq2(AddN(1), MulN(3)), 4) == 15

    def test_total_on_extremes(self):
        big = 2**63 - 1
        assert eval_tgt(Single(AddN(big)), big) == 2 * big
        assert eval_tgt(Single(MulN(big)), -big) == -(big * big)


class TestSyntax:
    def test_parse_and_print(self):
        for text, program in [
            ("add 42", Single(AddN(42))),
            ("mul -7", Single(MulN(-7))),
            ("add 1 ; mul 3", Seq2(AddN(1), MulN(3))),
        ]:
            assert parse_tgt_program(text) == program
            assert parse_tgt_program(print_tgt_program(program)) == program

    def test_whitespace_insensitive(self):
        assert parse_tgt_program("  add\t42 ") == Single(AddN(42))
        assert parse_tgt_program("add 1;mul 3") == Seq2(AddN(1), MulN(3))

    def test_parse_errors(self):
        for bad in ["sub 3", "add", "add x", "add 1 ; mul 2 ; add 3"]:
            with pytest.raises(ParseError):
                parse_tgt_program(bad)

    @pytest.mark.parametrize("operand", ["\u0661", "1_000", "+1"])
    def test_operand_is_ascii_digits_with_optional_minus(self, operand):
        # Python's int() takes each of these; the .tgt syntax does not.
        with pytest.raises(ParseError, match="malformed operand"):
            parse_tgt_program(f"add {operand}")
        with pytest.raises(ParseError, match="malformed operand"):
            parse_tgt_program(f"add 1 ; mul {operand}")


class TestEncoding:
    def test_add_encoding(self):
        assert encode_tgt_program(Single(AddN(42))) == SPair(SInt(0), SInt(42))

    def test_mul_encoding(self):
        assert encode_tgt_program(Single(MulN(7))) == SPair(SInt(1), SInt(7))

    def test_seq2_encoding_is_componentwise(self):
        assert encode_tgt_program(Seq2(AddN(1), MulN(3))) == SPair(
            SPair(SInt(0), SInt(1)), SPair(SInt(1), SInt(3))
        )

    def test_value_encoding(self):
        assert encode_tgt_value(0) == SInt(0)
        assert encode_tgt_value(-3) == SInt(-3)

    def test_decode_round_trip(self):
        rng = random.Random(3)
        for _ in range(1000):
            target = rng.choice(("single", "seq2"))
            program = random_tgt_program(rng, target, 10**9)
            assert decode_tgt_program(encode_tgt_program(program), target) == program
            n = rng.randint(-10**9, 10**9)
            assert decode_tgt_value(encode_tgt_value(n)) == n

    def test_decode_program_example(self):
        assert decode_tgt_program(SPair(SInt(0), SInt(42)), "single") == Single(AddN(42))

    def test_decode_value_example(self):
        assert decode_tgt_value(SInt(9)) == 9

    def test_unknown_opcode(self):
        with pytest.raises(DecodeError):
            decode_tgt_program(SPair(SInt(2), SInt(1)), "single")

    def test_off_range_shapes(self):
        with pytest.raises(DecodeError):
            decode_tgt_program(SInt(0), "single")
        with pytest.raises(DecodeError):
            decode_tgt_program(SPair(SInt(0), SInt(1)), "seq2")
        with pytest.raises(DecodeError):
            decode_tgt_value(SPair(SInt(1), SInt(2)))


class TestInterpreterFixtures:
    def test_single_fixture_on_worked_example(self):
        fixture = interpreter_fixture("single")
        out = eval_src(fixture, SPair(SPair(SInt(0), SInt(42)), SInt(5)))
        assert out == SInt(47)

    def test_single_fixture_multiplication(self):
        fixture = interpreter_fixture("single")
        out = eval_src(fixture, SPair(SPair(SInt(1), SInt(42)), SInt(0)))
        assert out == SInt(0)

    def test_seq2_fixture_matches_direct_eval(self):
        fixture = interpreter_fixture("seq2")
        program = Seq2(AddN(1), MulN(3))
        out = eval_src(fixture, SPair(encode_tgt_program(program), SInt(4)))
        assert out == SInt(15)

    @pytest.mark.parametrize("target", ["single", "seq2"])
    def test_interpretation_agrees_with_semantics(self, target):
        # The defining property of the fixtures, fuzzed.
        fixture = interpreter_fixture(target)
        rng = random.Random(17)
        for _ in range(1000):
            program = random_tgt_program(rng, target, 10**6)
            value = rng.randint(-10**6, 10**6)
            encoded_run = eval_src(
                fixture, SPair(encode_tgt_program(program), encode_tgt_value(value))
            )
            assert encoded_run == encode_tgt_value(eval_tgt(program, value))

    def test_target_of(self):
        assert target_of(Single(AddN(1))) == "single"
        assert target_of(Seq2(AddN(1), AddN(2))) == "seq2"
