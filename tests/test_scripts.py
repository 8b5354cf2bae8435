"""Smoke tests for the scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestNongradedOrderSearch:
    def test_one_tree_and_one_trial(self, capsys):
        search = load("nongraded_order_search")
        argv = ["--tree", "(()(()))", "--trials", "1", "--nodes", "5",
                "--max-iter", "200"]
        assert search.main(argv) == 0
        out = capsys.readouterr().out
        assert "graded (leaf depth 2), skipped" in out
        assert "exact probe -> 3559 bits in 50 steps" in out
        assert "finite order found on 0 tree(s)" in out

    def test_exact_steps_must_be_nonnegative(self, capsys):
        search = load("nongraded_order_search")
        for bad in ("-1", "1.5"):
            with pytest.raises(SystemExit) as exc:
                search.main(["--trials", "0", "--exact-steps", bad])
            assert exc.value.code == 2
            assert "argument --exact-steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, bad",
        [("--max-iter", "0"), ("--max-iter", "-5"), ("--nodes", "0"),
         ("--nodes", "-1"), ("--trials", "-3"), ("--trials", "2.5")],
    )
    def test_counts_out_of_range_are_usage_errors(self, capsys, option, bad):
        search = load("nongraded_order_search")
        with pytest.raises(SystemExit) as exc:
            search.main(["--trials", "0", option, bad])
        assert exc.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["10", "1", "0", "2305843009213693953"])
    def test_prime_must_be_prime(self, capsys, monkeypatch, bad):
        search = load("nongraded_order_search")
        monkeypatch.setattr(search, "order_search", None)  # no search may run
        with pytest.raises(SystemExit) as exc:
            search.main(["--tree", "(()(()))", "--trials", "0", "--prime", bad])
        assert exc.value.code == 2
        assert "argument --prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, why",
        [("((", "unbalanced"), ("()()", "multiple roots"),
         ("(x)", "unexpected character 'x'"), ("", "empty tree spec")],
    )
    def test_malformed_tree_is_a_usage_error(self, capsys, monkeypatch, bad, why):
        search = load("nongraded_order_search")
        monkeypatch.setattr(search, "order_search", None)  # no search may run
        with pytest.raises(SystemExit) as exc:
            search.main(["--tree", "(()(()))", "--tree", bad, "--trials", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tree: " in err and why in err

    @pytest.mark.parametrize(
        "option", ["--trials", "--nodes", "--seed", "--max-iter", "--prime",
                   "--exact-steps"],
    )
    @pytest.mark.parametrize("bad", ["٣", "+3", "3_0", " 3", "3 ", "-0", "²"])
    def test_integer_options_take_ascii_digits_only(self, capsys, option, bad):
        search = load("nongraded_order_search")
        with pytest.raises(SystemExit) as exc:
            search.main(["--trials", "0", option, bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected ASCII decimal digits" in err

    @pytest.mark.parametrize(
        "option", ["--trials", "--nodes", "--seed", "--max-iter", "--prime",
                   "--exact-steps"],
    )
    def test_integers_past_the_int_string_limit(self, capsys, option):
        # read through cli._decimal, whose int() refuses that many digits
        search = load("nongraded_order_search")
        with pytest.raises(SystemExit) as exc:
            search.main(["--trials", "0", option, "9" * 5000])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected at most" in err
        assert "_decimal" not in err

    def test_small_prime_and_seed_run(self, capsys):
        search = load("nongraded_order_search")
        argv = ["--tree", "(()(()))", "--trials", "0", "--prime", "13",
                "--seed", "3", "--max-iter", "200", "--exact-steps", "0"]
        assert search.main(argv) == 0
        out = capsys.readouterr().out
        assert "(()(()))                 mod-p finite-order order=10 after 10 iterations (9 restarts)" in out

    def test_smallest_counts_run(self, capsys):
        search = load("nongraded_order_search")
        argv = ["--tree", "(()(()))", "--trials", "1", "--nodes", "1",
                "--max-iter", "1", "--exact-steps", "0"]
        assert search.main(argv) == 0
        out = capsys.readouterr().out
        assert "(()(()))                 mod-p no-repeat after 1 iterations" in out
        assert "()                       graded (leaf depth 0), skipped" in out


class TestSurveyFamilies:
    def test_sweep_passes(self, capsys):
        survey = load("survey_families")
        assert survey.main(["--only", "tk,threeleaf"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(" ok " in line for line in lines)

    def test_budget_skips(self, capsys):
        survey = load("survey_families")
        assert survey.main(["--only", "comb", "--budget", "100"]) == 0
        out = capsys.readouterr().out
        assert "comb:1" in out and " ok " in out
        assert "comb:6" in out and " SKIP " in out

    def test_budget_must_be_positive(self, capsys):
        survey = load("survey_families")
        for bad in ("0", "-1", "1e3", "٣", "9" * 5000):
            with pytest.raises(SystemExit) as exc:
                survey.main(["--only", "tk", "--budget", bad])
            assert exc.value.code == 2
            assert "argument --budget" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        survey = load("survey_families")
        with pytest.raises(SystemExit) as exc:
            survey.main(["--only", "bogus"])
        assert exc.value.code == 2
        assert "unknown families: bogus" in capsys.readouterr().err


class TestRegenGoldens:
    def test_rewrites_every_golden_byte_for_byte(self, tmp_path, monkeypatch, capsys):
        """One in-process main call per case, one after another, writes
        each golden file exactly as it is checked in."""
        regen = load("regen_goldens")
        monkeypatch.setattr(regen, "ROOT", tmp_path)
        (tmp_path / "tests").mkdir()
        regen.regen()
        golden = SCRIPTS.parent / "tests" / "golden"
        written = tmp_path / "tests" / "golden"
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in written.iterdir()) == names
        for name in names:
            assert (written / name).read_bytes() == (golden / name).read_bytes(), name
        assert capsys.readouterr().out.count("wrote ") == len(names)
