"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from retargeter.cli import main


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
