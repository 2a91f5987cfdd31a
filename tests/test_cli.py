"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import sys

import pytest

from retargeter import analyzer, cli, retargeting
from retargeter.cli import build_parser, main
from retargeter.domains import TOP
from retargeter.met import interp, parser
from retargeter.retargeting import Report
from retargeter.srclang import embed_src_expr


@pytest.fixture
def add42(tmp_path):
    path = tmp_path / "add42.tgt"
    path.write_text("add 42\n")
    return str(path)


@pytest.fixture
def seq(tmp_path):
    path = tmp_path / "seq.tgt"
    path.write_text("add 1 ; mul 3\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_add(self, capsys, add42):
        code, out, _ = run_cli(capsys, "run", add42, "--input", "5")
        assert code == 0 and out.strip() == "47"

    def test_module_entry_point(self, add42):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import retargeter

        # The child finds the package where this process found it, whether
        # that is an installed copy or the checkout's ``src``.
        package_root = str(Path(retargeter.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "retargeter", "run", add42, "--input", "5"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "47"

    def test_mul_zero(self, capsys, tmp_path):
        path = tmp_path / "mul0.tgt"
        path.write_text("mul 0")
        code, out, _ = run_cli(capsys, "run", str(path), "--input", "9")
        assert code == 0 and out.strip() == "0"

    def test_seq2(self, capsys, seq):
        code, out, _ = run_cli(capsys, "run", seq, "--input", "4")
        assert code == 0 and out.strip() == "15"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.tgt"
        path.write_text("sub 3")
        code, _, err = run_cli(capsys, "run", str(path), "--input", "0")
        assert code == 2 and "error" in err


class TestAnalyze:
    def test_concrete_interval(self, capsys, add42):
        code, out, _ = run_cli(capsys, "analyze", add42,
                               "--domain", "interval", "--input", "5")
        assert code == 0 and out.strip() == "[47,47]"

    def test_abstract_interval(self, capsys, add42):
        code, out, _ = run_cli(capsys, "analyze", add42,
                               "--domain", "interval", "--abs-input", "[0,10]")
        assert code == 0 and out.strip() == "[42,52]"

    def test_sign_of_negative_product(self, capsys, tmp_path):
        path = tmp_path / "mulneg.tgt"
        path.write_text("mul -3")
        code, out, _ = run_cli(capsys, "analyze", str(path),
                               "--domain", "sign", "--input", "5")
        assert code == 0 and out.strip() == "{-}"

    def test_fuel_exhaustion_exit_3(self, capsys, add42):
        code, _, err = run_cli(capsys, "analyze", add42, "--domain", "interval",
                               "--input", "5", "--fuel", "4")
        assert code == 3 and "steps" in err

    def test_deeply_nested_abstract_input_exit_2(self, capsys, add42):
        nested = "(" * 2000 + "top" + ", top)" * 2000
        code, _, err = run_cli(capsys, "analyze", add42, "--domain", "interval",
                               "--abs-input", nested)
        assert code == 2 and "nested too deeply" in err

    def test_bad_abstract_input_exit_2(self, capsys, add42):
        # An inverted interval is malformed input, not a property failure.
        for text in ("{0}", "[5,3]"):
            code, _, _ = run_cli(capsys, "analyze", add42,
                                 "--domain", "interval", "--abs-input", text)
            assert code == 2, text

    def test_abstract_seq2(self, capsys, seq):
        # Oracle: hull of (i + 1) * 3 over i in 0..10.
        code, out, _ = run_cli(capsys, "analyze", seq,
                               "--domain", "interval", "--abs-input", "[0,10]")
        assert code == 0 and out.strip() == "[3,33]"

    def test_requests_embed_the_interpreter_at_most_once(self, capsys, monkeypatch, seq):
        embedded = []

        def counting_embed(e):
            embedded.append(e)
            return embed_src_expr(e)

        monkeypatch.setattr(analyzer, "embed_src_expr", counting_embed)
        analyzer._embedded_interpreter.cache_clear()
        for flags in (["--input", "5"], ["--abs-input", "[0,10]"]):
            code, _, _ = run_cli(capsys, "analyze", seq, "--domain", "interval", *flags)
            assert code == 0
        assert len(embedded) <= 1


class TestRetarget:
    def test_emit_and_reuse(self, capsys, tmp_path, add42):
        emitted = tmp_path / "single.met"
        code, out, _ = run_cli(capsys, "retarget", "--target", "single",
                               "--domain", "interval", "--emit", str(emitted))
        assert code == 0
        assert "match_nodes=0" in out
        text = emitted.read_text()

        from retargeter.met.parser import parse_met
        from retargeter.met.printer import count_nodes

        counts = count_nodes(parse_met(text))
        assert counts.get("Match", 0) == 0 and counts.get("AEQ") == 1

        code, out, _ = run_cli(capsys, "analyze-specialized", str(emitted), add42,
                               "--domain", "interval", "--input", "5")
        assert code == 0 and out.strip() == "[47,47]"

        code, out, _ = run_cli(capsys, "analyze-specialized", str(emitted), add42,
                               "--domain", "interval", "--abs-input", "[0,10]")
        assert code == 0 and out.strip() == "[42,52]"

    def test_inverted_interval_input_exit_2(self, capsys, tmp_path, add42):
        emitted = tmp_path / "single.met"
        run_cli(capsys, "retarget", "--target", "single", "--domain", "interval",
                "--emit", str(emitted))
        code, _, err = run_cli(capsys, "analyze-specialized", str(emitted), add42,
                               "--domain", "interval", "--abs-input", "[5,3]")
        assert code == 2 and "empty interval" in err

    def test_deterministic_emission(self, capsys, tmp_path):
        a, b = tmp_path / "a.met", tmp_path / "b.met"
        run_cli(capsys, "retarget", "--target", "seq2", "--domain", "sign",
                "--emit", str(a))
        run_cli(capsys, "retarget", "--target", "seq2", "--domain", "sign",
                "--emit", str(b))
        assert a.read_text() == b.read_text()

    def test_residual_names_its_target(self, capsys, tmp_path):
        emitted = tmp_path / "seq2.met"
        run_cli(capsys, "retarget", "--target", "seq2", "--domain", "sign", "--emit", str(emitted))
        assert emitted.read_text().splitlines()[0] == "# target: seq2"
        code, out, _ = run_cli(capsys, "retarget", "--target", "seq2", "--domain", "sign")
        assert code == 0 and out.splitlines()[0] == "# target: seq2"

    @pytest.mark.parametrize("header", ["# target: seq2", "# target: cobol"])
    def test_residual_for_another_target_exit_2(self, capsys, tmp_path, add42, header):
        emitted = tmp_path / "seq2.met"
        run_cli(capsys, "retarget", "--target", "seq2", "--domain", "interval",
                "--emit", str(emitted))
        text = emitted.read_text().replace("# target: seq2", header)
        emitted.write_text(text)
        code, out, err = run_cli(capsys, "analyze-specialized", str(emitted), add42,
                                 "--domain", "interval", "--input", "5")
        assert code == 2 and out == ""
        assert repr(header.split()[-1]) in err and "'single'" in err

    def test_residual_without_header_is_trusted(self, capsys, tmp_path, add42):
        emitted = tmp_path / "single.met"
        run_cli(capsys, "retarget", "--target", "single", "--domain", "interval",
                "--emit", str(emitted))
        emitted.write_text(emitted.read_text().split("\n", 1)[1])
        code, out, _ = run_cli(capsys, "analyze-specialized", str(emitted), add42,
                               "--domain", "interval", "--input", "5")
        assert code == 0 and out.strip() == "[47,47]"

    def test_invalid_residual_file_exit_2(self, capsys, tmp_path, add42):
        bad = tmp_path / "bad.met"
        bad.write_text("let x = in")
        code, _, _ = run_cli(capsys, "analyze-specialized", str(bad), add42,
                             "--domain", "interval", "--input", "1")
        assert code == 2

    def test_deeply_nested_residual_file_exit_2(self, capsys, tmp_path, add42):
        deep = tmp_path / "deep.met"
        deep.write_text("(" * 400 + "fun i -> eta(snd i)" + ")" * 400)
        code, _, err = run_cli(capsys, "analyze-specialized", str(deep), add42,
                               "--domain", "interval", "--input", "1")
        assert code == 2 and "nested too deeply" in err

    @pytest.mark.parametrize("text,message", [
        ("5", "program did not evaluate to a function"),
        ("fun i -> fst fst fst i", "fst of a non-tuple"),
    ], ids=["not-a-function", "stuck-projection"])
    def test_residual_that_is_not_an_analyzer_exit_2(self, capsys, tmp_path, add42,
                                                     text, message):
        residual = tmp_path / "bogus.met"
        residual.write_text(text + "\n")
        code, out, err = run_cli(capsys, "analyze-specialized", str(residual), add42,
                                 "--domain", "interval", "--input", "5")
        assert code == 2 and out == ""
        assert "not an analyzer" in err and message in err


class TestInputsAndFlags:
    @pytest.mark.parametrize("domain,abstract", [("interval", "[5,5]"), ("sign", "{+}")])
    def test_concrete_input_is_its_singleton_abstraction(self, capsys, tmp_path, seq,
                                                         domain, abstract):
        emitted = tmp_path / "seq2.met"
        run_cli(capsys, "retarget", "--target", "seq2", "--domain", domain,
                "--emit", str(emitted))
        for command in (["analyze"], ["analyze-specialized", str(emitted)]):
            lines = [run_cli(capsys, *command, seq, "--domain", domain, *flags)[1]
                     for flags in (["--input", "5"], ["--abs-input", abstract])]
            assert lines[0] == lines[1], command
        assert lines[0].strip() == ("[18,18]" if domain == "interval" else "{+}")

    @pytest.mark.parametrize("argv", [
        ["run", "PROGRAM", "--input", "5"],
        ["retarget", "--target", "single", "--domain", "sign"],
        ["check", "--target", "single", "--domain", "sign", "--trials", "1"],
        ["bench", "--target", "single", "--domain", "sign", "--trials", "1"],
    ], ids=lambda argv: argv[0])
    def test_fuel_is_rejected_where_no_steps_are_budgeted(self, capsys, add42, argv):
        argv = [add42 if a == "PROGRAM" else a for a in argv]
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--fuel", "5"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --fuel" in capsys.readouterr().err

    @pytest.mark.parametrize("fuel", ["0", "-3"])
    def test_fuel_must_be_a_positive_integer(self, capsys, tmp_path, add42, fuel):
        emitted = tmp_path / "single.met"
        run_cli(capsys, "retarget", "--target", "single", "--domain", "interval",
                "--emit", str(emitted))
        for command in (["analyze"], ["analyze-specialized", str(emitted)]):
            with pytest.raises(SystemExit) as exit_:
                main([*command, add42, "--domain", "interval", "--input", "5",
                      "--fuel", fuel])
            assert exit_.value.code == 2, command
            assert "must be a positive integer" in capsys.readouterr().err


    @pytest.mark.parametrize("text", ["\u0661", "1_000", "+1", " 1"])
    def test_integer_flags_take_ascii_digits_with_optional_minus(self, capsys, tmp_path,
                                                                 add42, text):
        # Python's int() takes each of these; no front end does.
        emitted = tmp_path / "single.met"
        run_cli(capsys, "retarget", "--target", "single", "--domain", "interval",
                "--emit", str(emitted))
        for argv in (
            ["run", add42, "--input", text],
            ["analyze", add42, "--domain", "interval", "--input", text],
            ["analyze-specialized", str(emitted), add42, "--domain", "interval",
             "--input", text],
            ["analyze", add42, "--domain", "interval", "--input", "1", "--fuel", text],
            ["check", "--target", "single", "--domain", "sign", "--trials", text],
            ["bench", "--target", "single", "--domain", "sign", "--seed", text],
        ):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2, argv
            assert "invalid" in capsys.readouterr().err, argv

    def test_abstract_input_bounds_are_ascii_digits(self, capsys, add42):
        for text in ("[\u0661,2]", "[1_000,2]"):
            code, out, err = run_cli(capsys, "analyze", add42, "--domain", "interval",
                                     "--abs-input", text)
            assert code == 2 and out == "" and "malformed interval bound" in err, text

    def test_overlong_integer_is_a_short_parse_error(self, capsys, tmp_path, add42):
        digits = "9" * 5000
        program = tmp_path / "big.tgt"
        program.write_text(f"add {digits}\n")
        code, out, err = run_cli(capsys, "run", str(program), "--input", "1")
        assert (code, out) == (2, "") and len(err) < 200
        assert "integer literal too long (5000 characters)" in err
        code, out, err = run_cli(capsys, "analyze", add42, "--domain", "interval",
                                 "--abs-input", f"[0,{digits}]")
        assert (code, out) == (2, "") and len(err) < 200
        with pytest.raises(SystemExit) as exit_:
            main(["run", add42, "--input", digits])
        err = capsys.readouterr().err
        assert exit_.value.code == 2 and len(err.splitlines()[-1]) < 200
        assert "integer literal too long (5000 characters)" in err

    def test_negative_input(self, capsys, add42):
        code, out, _ = run_cli(capsys, "run", add42, "--input", "-50")
        assert code == 0 and out.strip() == "-8"

    @pytest.mark.parametrize("command", ["check", "bench"])
    def test_trials_must_be_nonnegative(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--target", "single", "--domain", "sign", "--trials", "-1"])
        assert exit_.value.code == 2
        assert "must be a nonnegative integer" in capsys.readouterr().err

    def test_unusable_file_argument_exit_2(self, capsys, tmp_path, add42):
        emitted = tmp_path / "single.met"
        run_cli(capsys, "retarget", "--target", "single", "--domain", "sign",
                "--emit", str(emitted))
        binary = tmp_path / "binary.tgt"
        binary.write_bytes(b"\xff\xfe")
        missing = str(tmp_path / "missing")
        for argv in (
            ["analyze", missing + ".tgt", "--domain", "sign", "--input", "1"],
            ["analyze-specialized", missing + ".met", add42, "--domain", "sign", "--input", "1"],
            ["run", str(tmp_path), "--input", "1"],
            ["run", str(binary), "--input", "1"],
            ["retarget", "--target", "single", "--domain", "sign",
             "--emit", str(tmp_path / "no-such-dir" / "single.met")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error: "), argv

    @pytest.mark.parametrize("argv", [
        ["run", "{}", "--input", "1"],
        ["analyze", "{}", "--domain", "sign", "--input", "1"],
        ["analyze-specialized", "{}", "p.tgt", "--domain", "sign", "--input", "1"],
        ["analyze-specialized", "r.met", "{}", "--domain", "sign", "--input", "1"],
        ["retarget", "--target", "single", "--domain", "sign", "--emit", "{}"],
    ])
    def test_a_path_with_a_nul_byte_is_a_usage_error(self, capsys, argv):
        # Only an in-process request can pass one: argv holds no NUL bytes.
        with pytest.raises(SystemExit) as exit_:
            main([word.format("a\0b") for word in argv])
        assert exit_.value.code == 2
        assert "a path cannot hold a NUL byte" in capsys.readouterr().err

    def test_an_unexpected_value_error_is_not_a_property_failure(self, monkeypatch, add42):
        # Exit 1 means a property failed.  Every input is checked where it
        # is read, so a ValueError that reaches ``main`` is a bug and
        # propagates.
        def planted(p, i):
            raise ValueError("planted")
        monkeypatch.setattr(cli, "eval_tgt", planted)
        with pytest.raises(ValueError, match="planted"):
            main(["run", add42, "--input", "1"])


class TestResultTooLargeToPrint:
    """A result with more digits than ``str`` converts is malformed input
    (exit 2), not a property failure."""

    @pytest.fixture
    def bigmul(self, tmp_path):
        path = tmp_path / "bigmul.tgt"
        path.write_text("mul " + "9" * 4000 + "\n")
        return str(path)

    @pytest.mark.parametrize("command", ["run", "analyze", "analyze-specialized"])
    def test_exit_2_naming_the_limit(self, capsys, tmp_path, bigmul, command):
        argv = [command, bigmul, "--input", "9" * 4000]
        if command != "run":
            argv += ["--domain", "interval"]
        if command == "analyze-specialized":
            emitted = tmp_path / "single.met"
            run_cli(capsys, "retarget", "--target", "single", "--domain", "interval",
                    "--emit", str(emitted))
            argv.insert(1, str(emitted))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"more than {sys.get_int_max_str_digits()} digits" in err


class TestOneParserPerProcess:
    def test_later_requests_construct_no_parser(self, capsys, monkeypatch, add42):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        counts = []
        for _ in range(3):
            code, out, _ = run_cli(capsys, "run", add42, "--input", "5")
            assert code == 0 and out.strip() == "47"
            counts.append(len(built))
        assert counts[0] > 0 and counts == [counts[0]] * 3

    def test_a_subcommand_request_is_parsed_once(self, capsys, monkeypatch, add42):
        parses = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting_parse(self, *args, **kwargs):
            parses.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
        code, out, _ = run_cli(capsys, "run", add42, "--input", "5")
        assert code == 0 and out.strip() == "47"
        assert parses == ["retargeter run"]

    def test_no_state_carries_between_requests(self, capsys, seq):
        lines = [run_cli(capsys, "analyze", seq, "--domain", "interval", *flags)
                 for flags in (["--input", "5"], ["--abs-input", "[5,5]"])]
        assert lines[0] == lines[1] == (0, "[18,18]\n", "")

    def test_a_rejected_request_leaves_the_parser_usable(self, capsys, add42):
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", add42, "--domain", "interval", "--input", "1",
                  "--abs-input", "top"])
        assert exit_.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "analyze", add42, "--domain", "interval",
                               "--input", "1")
        assert code == 0 and out.strip() == "[43,43]"


def test_import_loads_neither_pathlib_nor_json():
    """A one-shot command does not pay for modules its request never uses."""
    import os
    import subprocess
    from pathlib import Path

    import retargeter

    package_root = str(Path(retargeter.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, retargeter.cli; print(sorted({'pathlib', 'json'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def count_parses(monkeypatch) -> list[str]:
    """The texts ``parse_met`` parses from now on, memo hits left out."""
    parsed = []

    class CountingParser(parser._Parser):
        def __init__(self, source):
            parsed.append(source)
            super().__init__(source)

    monkeypatch.setattr(parser, "_Parser", CountingParser)
    return parsed


class TestOneParsePerResidualText:
    def test_repeated_requests_parse_and_compile_the_residual_once(
            self, capsys, monkeypatch, tmp_path, add42):
        emitted = tmp_path / "single.met"
        run_cli(capsys, "retarget", "--target", "single", "--domain", "interval",
                "--emit", str(emitted))
        parsed, compiled = count_parses(monkeypatch), []

        def counting(compile_node):
            def compile_counted(node, domain):
                compiled.append(node)
                return compile_node(node, domain)
            return compile_counted

        for cls, compile_node in list(interp._COMPILERS.items()):
            monkeypatch.setitem(interp._COMPILERS, cls, counting(compile_node))
        parser._parse.cache_clear()
        outcomes, counts = [], []
        for _ in range(2):
            outcomes.append(run_cli(capsys, "analyze-specialized", str(emitted), add42,
                                    "--domain", "interval", "--abs-input", "[0,10]"))
            counts.append((len(parsed), len(compiled)))
        assert outcomes == [(0, "[42,52]\n", "")] * 2
        assert parsed == [emitted.read_text()]
        assert counts[0][1] > 0 and counts[1] == counts[0]

    def test_a_rewritten_residual_file_is_read_afresh(self, capsys, monkeypatch, tmp_path,
                                                     add42):
        # The memo follows the text, not the path: each rewrite is parsed
        # afresh, and a text seen before is not parsed again.
        parsed = count_parses(monkeypatch)
        residual = tmp_path / "residual.met"
        argv = ("analyze-specialized", str(residual), add42, "--domain", "interval",
                "--input", "5")
        run_cli(capsys, "retarget", "--target", "single", "--domain", "interval",
                "--emit", str(residual))
        single = residual.read_text()
        assert run_cli(capsys, *argv) == (0, "[47,47]\n", "")
        residual.write_text("fun i -> eta(7)")
        assert run_cli(capsys, *argv) == (0, "[7,7]\n", "")
        seen = len(parsed)
        residual.write_text(single)
        assert run_cli(capsys, *argv) == (0, "[47,47]\n", "")
        assert len(parsed) == seen
        residual.write_text("fun i -> fst fst fst i")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "not an analyzer" in err
        run_cli(capsys, "retarget", "--target", "seq2", "--domain", "interval",
                "--emit", str(residual))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "'seq2'" in err


class TestCheckAndBench:
    def test_check_ok(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--target", "single",
                               "--domain", "interval", "--trials", "40")
        assert code == 0
        assert "soundness" in out and "equivalence" in out

    def test_check_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--target", "seq2",
                               "--domain", "sign", "--trials", "10",
                               "--output", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["kind"] for r in reports] == ["soundness", "equivalence"]
        for report in reports:
            assert set(report) == {
                "kind", "domain", "target", "trials", "seed", "failures",
                "mean_meta_steps", "mean_spec_steps", "ratio",
            }
            assert report["failures"] == []

    def test_check_zero_trials(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--target", "single",
                             "--domain", "sign", "--trials", "0")
        assert code == 0

    def test_bench_reports_ratio_above_one(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--target", "seq2",
                               "--domain", "interval", "--trials", "25",
                               "--output", "json")
        assert code == 0
        report = json.loads(out)[0]
        assert report["ratio"] > 1

    def test_deterministic_json(self, capsys):
        args = ("check", "--target", "single", "--domain", "interval",
                "--trials", "15", "--seed", "5", "--output", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_a_failure_prints_the_command_that_replays_it(self, capsys, monkeypatch):
        real = retargeting.run_specialized
        seen = []

        def recording(analyzer, p, i, budget=None):
            seen.append((p, i))
            return real(analyzer, p, i, budget)
        monkeypatch.setattr(retargeting, "run_specialized", recording)
        args = ("check", "--target", "seq2", "--domain", "sign", "--seed", "5")
        run_cli(capsys, *args, "--trials", "8")
        trial = 3
        planted = seen[8 + trial]        # trial 3 of the equivalence run

        def faulty(analyzer, p, i, budget=None):
            return TOP if (p, i) == planted else real(analyzer, p, i, budget)
        monkeypatch.setattr(retargeting, "run_specialized", faulty)
        code, out, _ = run_cli(capsys, *args, "--trials", "8")
        assert code == 1
        fail_lines = [line for line in out.splitlines() if "FAIL" in line]
        replay = "retargeter check --domain sign --target seq2 --seed 5 --trials 4"
        assert len(fail_lines) == 1
        assert fail_lines[0].startswith(f"  FAIL trial {trial} (replay: {replay}): ")

        code, out, _ = run_cli(capsys, *replay.split()[1:], "--output", "json")
        assert code == 1
        soundness, equivalence = json.loads(out)
        assert soundness["failures"] == [] and equivalence["trials"] == trial + 1
        assert [f["trial"] for f in equivalence["failures"]] == [trial]

    def test_replay_commands_name_the_harness(self):
        report = Report("bench", "interval", "single", 9, 7, failures=[{"trial": 2}], ratio=1.0)
        assert ("FAIL trial 2 (replay: retargeter bench --domain interval --target single "
                "--seed 7 --trials 3): " in report.to_text())
        report.magnitude = 5        # not what the command line draws with
        assert report.replay_command(2) is None
        assert "  FAIL trial 2: {'trial': 2}" in report.to_text()
