import os
import subprocess
import sys

import pytest

from conftest import DATA
from smkit import words
from smkit.cli import main

EE = os.path.join(DATA, "sample.ee")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """Exit code and stderr of a command line that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


class TestDyck:
    def test_minus_positive_exit(self, capsys):
        code, out, _ = run_cli(capsys, "dyck", "--word", "a a^-1", "--minus")
        assert code == 0 and "minus pairing" in out

    def test_non_dyck_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "dyck", "--word", "a b", "--minus")
        assert code == 1 and "not a Dyck word" in err

    def test_enumerate_with_limit(self, capsys):
        code, out, _ = run_cli(capsys, "dyck", "--word", "a a^-1 a a^-1",
                               "--limit", "1")
        assert code == 0 and out.count("\n") == 2

    def test_bad_token_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "dyck", "--word", "a(")
        assert code == 2 and "error" in err

    def test_minus_on_34_letters_answers_at_once(self, capsys, monkeypatch):
        # the search over matchings took 49 s on this word
        def no_search(*args):
            raise AssertionError("searched over matchings")

        monkeypatch.setattr(words, "_matchings", no_search)
        text = " ".join(["a a^-1"] * 8 + ["b^-1"] + ["a a^-1"] * 8 + ["b"])
        code, _, err = run_cli(capsys, "dyck", "--word", text, "--minus")
        assert code == 1 and "no minus pairing" in err

    def test_limit_below_one_exit_two(self, capsys):
        for limit in ("0", "-1"):
            code, err = usage_error(capsys, "dyck", "--word", "a a^-1 a a^-1",
                                    "--limit", limit)
            assert code == 2 and "error:" in err and "--limit" in err


class TestBriefAndRun:
    def test_brief_on_choreography(self, capsys, tmp_path, hw):
        from smkit.derive import insertion_history
        from smkit.smachine import history_text
        h = insertion_history(hw, ((1, 1),), 0, 2)
        path = tmp_path / "h.txt"
        path.write_text(history_text(h))
        code, out, err = run_cli(capsys, "brief", "--history", str(path))
        assert code == 0
        assert out.strip().startswith("(12)")
        assert "historical form: True" in err

    def test_run_trace(self, capsys, tmp_path, hw):
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w(()).text())
        hpath = tmp_path / "h.txt"
        hpath.write_text("t12(r1)\nt23(r1)\n")
        code, out, _ = run_cli(capsys, "run", "--ee", EE, "--word", str(wpath),
                               "--history", str(hpath))
        assert code == 0 and out.count("\n") == 3

    def test_run_failure_exit_one(self, capsys, tmp_path, hw):
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w(()).text())
        hpath = tmp_path / "h.txt"
        hpath.write_text("t23(r1)\n")
        code, _, err = run_cli(capsys, "run", "--ee", EE, "--word", str(wpath),
                               "--history", str(hpath))
        assert code == 1 and "CoordMismatch" in err


class TestDerive:
    def test_insert_verify(self, capsys):
        code, out, err = run_cli(capsys, "derive", "insert", "--ee", EE,
                                 "--word", "a1 a2", "--pos", "1",
                                 "--relator", "r2", "--verify")
        assert code == 0
        assert out.splitlines()[0] == "t1(e,1)"

    def test_bar_conjugated(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "insert", "--ee", EE,
                               "--bar", "--conjugator", "a1^-1",
                               "--relator", "r1", "--verify")
        assert code == 0 and "~t12(r1)" in out

    def test_chain(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("insert 0 r1\ndelete 0 r1\n")
        code, out, err = run_cli(capsys, "derive", "chain", "--ee", EE,
                                 "--word", "a2", "--steps", str(steps),
                                 "--verify")
        assert code == 0 and "final word: a2" in err

    @pytest.mark.parametrize("word", ("a0", "a7"))
    @pytest.mark.parametrize("argv", (
        ("chain", "--word", "{w}", "--steps", "insert 0 r1"),
        ("chain", "--word", "{w}", "--steps", "insert 0 r1", "--verify"),
        ("insert", "--word", "{w}", "--relator", "r1", "--verify"),
        ("insert", "--bar", "--word", "{w}", "--relator", "r1", "--verify"),
        ("insert", "--bar", "--conjugator", "{w}", "--relator", "r1", "--verify")),
        ids=("chain", "chain-verify", "insert", "insert-bar", "insert-bar-conjugator"))
    def test_generator_naming_nothing_exit_two(self, capsys, word, argv):
        code, out, err = run_cli(capsys, "derive", argv[0], "--ee", EE,
                                 *(a.format(w=word) for a in argv[1:]))
        assert code == 2 and out == ""
        assert err == f"error: {word} names no generator (mbar = 2)\n"

    @pytest.mark.parametrize("steps", ("insert 0", "insert x r1"))
    def test_malformed_steps_line_exit_two(self, capsys, steps):
        code, out, err = run_cli(capsys, "derive", "chain", "--ee", EE, "--word", "a1",
                                 "--steps", "# a comment line\n" + steps)
        assert (code, out) == (2, "")
        assert err == (f"error: steps line 2: expected 'insert|delete <pos> <relator>', "
                       f"got '{steps}'\n")

    def test_bad_relator_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "derive", "insert", "--ee", EE,
                             "--relator", "q1")
        assert code == 2

    @pytest.mark.parametrize("argv, message", (
        (("--bar", "--delete"), "--delete does not apply with --bar"),
        (("--bar", "--pos", "5"), "--pos does not apply with --bar"),
        (("--bar", "--pos", "0"), "--pos does not apply with --bar"),
        (("--bar", "--conjugator", "a2", "--delete", "--pos", "5"),
         "--delete does not apply with --bar"),
        (("--conjugator", "a2"), "--conjugator applies only with --bar"),
        (("--conjugator", "a2", "--delete"), "--conjugator applies only with --bar"),
        (("--conjugator", ""), "--conjugator applies only with --bar")),
        ids=("bar-delete", "bar-pos", "bar-pos-zero", "bar-all", "conjugator",
             "conjugator-delete", "conjugator-empty"))
    def test_option_outside_its_mode_exit_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "derive", "insert", "--ee", EE,
                                 "--relator", "r1", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_plain_delete_at_pos(self, capsys, hw):
        from smkit.derive import insertion_history
        from smkit.smachine import history_text
        code, out, _ = run_cli(capsys, "derive", "insert", "--ee", EE, "--word", "a1 a1 a2",
                               "--pos", "1", "--relator", "r1", "--delete", "--verify")
        h = insertion_history(hw, ((1, 1), (1, 1), (2, 1)), 1, 1, delete=True)
        assert (code, out) == (0, history_text(h) + "\n")


class TestAccept:
    def test_depth_zero_target(self, capsys, tmp_path, hw):
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w(((1, 1),)).text())
        code, out, err = run_cli(capsys, "accept", "--ee", EE, "--word",
                                 str(wpath), "--max-steps", "0")
        assert code == 0 and "accepted" in err

    def test_exhausted_exit_one(self, capsys, tmp_path, hw, strict):
        from smkit.words import parse_rule
        W = strict.apply(parse_rule("t12(r1)"), hw.sigma_w(()))
        wpath = tmp_path / "w.txt"
        wpath.write_text(W.text())
        code, _, err = run_cli(capsys, "accept", "--ee", EE, "--word",
                               str(wpath), "--max-steps", "0")
        assert code == 1 and "no accepting" in err
        assert "(depth; 0 nodes expanded)" in err

    def test_negative_max_steps_exit_two(self, capsys):
        code, err = usage_error(capsys, "accept", "--ee", EE, "--word", "K1(e,1)",
                                "--max-steps", "-1")
        assert code == 2 and "error:" in err and "--max-steps" in err

    def test_exhausted_search_says_so(self, capsys):
        code, out, err = run_cli(capsys, "accept", "--ee", EE, "--word", "K1(e,1)",
                                 "--max-steps", "30")
        assert code == 1 and out == ""
        assert err == "no accepting computation found (exhausted; 11 nodes expanded)\n"

    def test_unreachable_coordinate_stops_at_once(self, capsys):
        # the t2(e,i) ages grow this word without end, and (e,2) has no path
        # to (e,1): every rule is pruned at the start, however many steps
        code, out, err = run_cli(capsys, "accept", "--ee", EE, "--word", "K1(e,2) L1(e,2)",
                                 "--max-steps", "1000000000")
        assert code == 1 and out == ""
        assert err == "no accepting computation found (depth; 1 nodes expanded)\n"

    def test_node_budget(self, capsys):
        code, out, err = run_cli(capsys, "accept", "--ee", EE, "--word", "K1(e,1) L1(e,1)",
                                 "--max-steps", "30", "--max-nodes", "200")
        assert code == 1 and out == ""
        assert err.startswith("no accepting computation found (budget; ")

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_node_budget_below_one_exit_two(self, capsys, value):
        code, err = usage_error(capsys, "accept", "--ee", EE, "--word", "K1(e,1)",
                                "--max-steps", "3", "--max-nodes", value)
        assert code == 2 and "error:" in err and "--max-nodes" in err


class TestStatsAndXconj:
    def test_stats(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--ee", EE)
        assert code == 0 and "positive rules: 39" in out

    def test_xconj_conjugate(self, capsys):
        code, out, _ = run_cli(capsys, "xconj", "--ee", EE,
                               "--w1", "x(a1(L2),t2(r1,1))",
                               "--w2", "x(a1(K2),t2(r1,1)) "
                                       "x(a1(K2),t2(r1,1)) "
                                       "x(a1(K2),t2(r1,1)) x(a1(K2),t2(r1,1))")
        assert code == 0 and "conjugate" in out

    @pytest.mark.parametrize("w2", ("x(a9(L2),t2(r1,1))", "x(a1(L12),t2(r1,1))",
                                    "x(a1(L2),t2(r9,1))", "x(a0(L2),t2(r1,1))",
                                    "x(a1(L0),t2(r1,1))", "x(a1(L2),t2(r0,1))",
                                    "x(a1(L2),t2(r1,0))"))
    def test_xconj_letter_naming_nothing_exit_two(self, capsys, w2):
        code, out, err = run_cli(capsys, "xconj", "--ee", EE,
                                 "--w1", "x(a1(L2),t2(r1,1))", "--w2", w2)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {w2}: ") and "Traceback" not in err

    def test_xconj_negative(self, capsys):
        code, out, _ = run_cli(capsys, "xconj", "--ee", EE,
                               "--w1", "x(a1(L2),t2(r1,1))",
                               "--w2", "x(a2(L2),t2(r1,1))")
        assert code == 1 and "not conjugate" in out


class TestBandCli:
    def test_band_verify(self, capsys, tmp_path, hw):
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w((), flavor="bar").text())
        code, out, err = run_cli(capsys, "band", "--ee", EE, "--word",
                                 str(wpath), "--rule", "~t12(r1)", "--verify")
        assert code == 0 and out.startswith("band ~t12(r1)")
        assert "violation" not in err

    def test_trapezium_verify(self, capsys, tmp_path, hw):
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w(((1, 1),), flavor="bar").text())
        hpath = tmp_path / "h.txt"
        hpath.write_text("~t12(r1)\n~t2(r1,1)^-1\n")
        code, out, _ = run_cli(capsys, "trapezium", "--ee", EE, "--word",
                               str(wpath), "--history", str(hpath), "--verify")
        assert code == 0 and out.startswith("trapezium height=2")

    def test_band_not_applicable_exit_one(self, capsys, tmp_path, hw):
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w(()).text())
        code, _, err = run_cli(capsys, "band", "--ee", EE, "--word",
                               str(wpath), "--rule", "t23(r1)")
        assert code == 1 and "not applicable" in err

    def test_band_and_trapezium_never_emit(self, capsys, tmp_path, hw, monkeypatch):
        # --verify checks against the relations of the object's own rules
        import smkit.cli as cli
        calls = []
        real_emit = cli.emit
        monkeypatch.setattr(cli, "emit", lambda *a: calls.append(a) or real_emit(*a))
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w((), flavor="bar").text())
        hpath = tmp_path / "h.txt"
        hpath.write_text("~t12(r1)\n")
        code, _, err = run_cli(capsys, "band", "--ee", EE, "--word", str(wpath),
                               "--rule", "t23(r1)")
        assert code == 1 and "not applicable" in err
        for verify in ((), ("--verify",)):
            code, out, err = run_cli(capsys, "band", "--ee", EE, "--word", str(wpath),
                                     "--rule", "~t12(r1)", *verify)
            assert code == 0 and out.startswith("band ~t12(r1)") and err == ""
            code, out, err = run_cli(capsys, "trapezium", "--ee", EE, "--word", str(wpath),
                                     "--history", str(hpath), *verify)
            assert code == 0 and out.startswith("trapezium height=1") and err == ""
        assert calls == []


class TestPresent:
    def test_present_stats_golden(self, capsys, tmp_path):
        out_path = tmp_path / "p.txt"
        code, _, err = run_cli(capsys, "present", "--ee", EE, "--out",
                               str(out_path), "--stats")
        assert code == 0
        assert "k_x: 18720" in err
        text = out_path.read_text()
        assert text.startswith("n: 8\nee-file: sample.ee\n")
        from smkit.presentation import read_presentation
        with open(out_path) as f:
            pres = read_presentation(f)
        assert pres.stats()["main"] == 1248

    def test_closed_stdout_exits_141_silently(self):
        """A reader that closes stdout early (``| head -1``) is not an input
        error: exit 141, as SIGPIPE would, with nothing on stderr."""
        # the directory that holds the smkit package under test
        src = os.path.dirname(os.path.dirname(os.path.abspath(words.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "smkit.cli", "present", "--ee", EE, "--n", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"n: 8\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""


class TestUnreducedWord:
    """A --word that is not freely reduced is not admissible (exit 2); it is
    not reduced before the check."""

    @pytest.mark.parametrize("word", ("K1(e,1) a1(K1) a1(K1)^-1 L1(e,1)",
                                      "K1(e,1)^-1 K1(e,1)"))
    @pytest.mark.parametrize("command", (
        ("run", "--history", "t1(e,1)"),
        ("accept", "--max-steps", "1"),
        ("band", "--rule", "t1(e,1)"),
        ("trapezium", "--history", "t1(e,1)")), ids=lambda c: c[0])
    def test_exit_two(self, capsys, command, word):
        code, out, err = run_cli(capsys, command[0], "--ee", EE, "--word", word, *command[1:])
        assert (code, out, err) == (2, "", f"error: NotReduced: {word}\n")


class TestUnknownRules:
    """A rule token that names no rule of the machine is an input error
    (exit 2), not a failed step."""

    @pytest.mark.parametrize("command", (
        ("run", "--history", "t12(r5)"),
        ("run", "--history", "t12(r1)\nt23(r1)\nt3(r1,7)"),
        ("run", "--history", "~t12(r1)"),  # a bar rule: the strict machine has none
        ("trapezium", "--history", "~t12(r5)"),
        ("band", "--rule", "t12(r5)"),
        ("band", "--rule", "~t1(e,3)")))
    def test_exit_two(self, capsys, tmp_path, hw, command):
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w((), flavor="bar").text())
        name, option, value = command
        if option == "--history":
            hpath = tmp_path / "h.txt"
            hpath.write_text(value + "\n")
            value = str(hpath)
        code, out, err = run_cli(capsys, name, "--ee", EE, "--word", str(wpath), option, value)
        assert code == 2 and out == ""
        assert err.startswith("error: unknown rule ") and "machine" in err

    def test_known_rules_still_run(self, capsys, tmp_path, hw):
        wpath = tmp_path / "w.txt"
        wpath.write_text(hw.sigma_w(()).text())
        hpath = tmp_path / "h.txt"
        hpath.write_text("t12(r2)\n")
        code, out, _ = run_cli(capsys, "run", "--ee", EE, "--word", str(wpath),
                               "--history", str(hpath))
        assert code == 0 and out.count("\n") == 2
