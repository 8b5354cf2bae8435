"""CLI contract: golden outputs, determinism, exit codes."""

import argparse
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import CASES
from treerow import Orbit, RootedTree, cli, continuous, families, poset, stats
from treerow.cli import main
from treerow.errors import SpecParseError
from treerow.families import parse_family
from treerow.stats import parse_statistic
from treerow.families import FamilyReport

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGolden:
    def test_every_case_matches(self):
        for name, argv in CASES.items():
            code, out, _ = run(argv)
            assert code == 0, name
            assert out == (GOLDEN / name).read_text(), name

    def test_every_verb_covered(self):
        verbs = {argv[0] for argv in CASES.values()}
        assert verbs == {
            "orbits",
            "tiling",
            "render",
            "stats",
            "homomesy",
            "homometry",
            "verify",
            "birational",
            "pl",
        }

    def test_repeat_runs_are_byte_identical(self):
        for name in (
            "orbits_star332.json",
            "birational_grid22.json",
            "birational_grid22_modp.json",
        ):
            first = run(CASES[name])
            second = run(CASES[name])
            assert first == second


class TestOutputs:
    def test_orbits_json_fields(self):
        _, out, _ = run(["orbits", "--family", "star:3,3,2"])
        doc = json.loads(out)
        assert doc["tree"] == "star:3,3,2"
        assert doc["antichains"] == 19
        assert [o["size"] for o in doc["orbits"]] == [7, 6, 6]
        assert doc["orbits"][0]["members"][0] == []

    def test_orbits_counts_antichains_once(self, monkeypatch):
        # the budget check counts them; the JSON field sums the orbit sizes
        calls = []
        count = RootedTree.count_antichains

        def counting(tree):
            calls.append(tree)
            return count(tree)

        monkeypatch.setattr(RootedTree, "count_antichains", counting)
        _, out, _ = run(["orbits", "--family", "zipper:3"])
        doc = json.loads(out)
        assert len(calls) == 1
        assert doc["antichains"] == count(calls[0])
        assert doc["antichains"] == sum(o["size"] for o in doc["orbits"])

    def test_homomesy_witness_averages(self):
        _, out, _ = run(["homomesy", "--family", "star:3,3,2", "--stat", "chi"])
        doc = json.loads(out)
        assert doc["homomesic"] is False
        assert doc["witness"]["averages"] == ["12/7", "11/6"]

    def test_homometry_witness_sums(self):
        _, out, _ = run(["homometry", "--family", "cbt:3", "--stat", "chi"])
        doc = json.loads(out)
        assert doc["homometric"] is False
        assert doc["witness"]["sums"] == [14, 15]
        assert [o["size"] for o in doc["witness"]["orbits"]] == [4, 4]

    def test_average_is_the_fraction_string(self):
        totals = [*range(-40, 41), -(10**30) - 7, 10**30 + 6, 2**61 - 1]
        for size in range(1, 25):
            for total in totals:
                assert cli._average(total, size) == str(Fraction(total, size))
        assert [cli._average(t, 6) for t in (-12, -9, 0, 4)] == ["-2", "-3/2", "0", "2/3"]

    def test_csv_shape(self):
        _, out, _ = run(CASES["orbits_star332.csv"])
        lines = out.splitlines()
        assert lines[0] == "orbit,size,delta,representative"
        assert len(lines) == 4 and not out.endswith("\n\n")

    def test_timing_key_only_on_request(self):
        _, out, _ = run(["pl", "--grid", "2x2", "--seed", "0"])
        assert "wall_time_ms" not in json.loads(out)
        _, out, _ = run(["pl", "--grid", "2x2", "--seed", "0", "--timing"])
        assert "wall_time_ms" in json.loads(out)

    def test_continuous_on_tree_and_family(self):
        _, out, _ = run(["birational", "--family", "star:2,2", "--seed", "3"])
        assert json.loads(out)["outcome"] == "finite-order"
        _, out, _ = run(["pl", "--tree", "(())", "--seed", "3"])
        assert json.loads(out)["order"] is not None

    def test_exact_search_on_a_non_graded_tree_ends(self):
        # no finite order is known here: the search stops at the bit cap
        proc = subprocess.run(
            [sys.executable, "-m", "treerow.cli", "birational", "--tree", "(()(()))"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["mode"], doc["outcome"], doc["order"]) == (
            "rational", "no-repeat", None
        )
        assert (doc["iterations_used"], doc["max_bits"]) == (119, 20063)

    def test_verify_failure_exits_one(self, monkeypatch):
        broken = FamilyReport("tk:2", False, (), 14, 13)
        # the verify handler imports verify_family from families on each call
        monkeypatch.setattr(families, "verify_family", lambda desc, budget: broken)
        code, out, _ = run(["verify", "--family", "tk:2"])
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestExitCodes:
    USAGE_CASES = [
        ["orbits", "--tree", "(()"],
        ["orbits", "--tree", "(())", "--family", "star:2,2"],
        ["orbits"],
        ["orbits", "--family", "star:1"],
        ["tiling", "--family", "star:2,2", "--format", "csv"],
        ["render", "--family", "star:2,2", "--format", "json"],
        ["orbits", "--tree", "(())", "--format", "ascii"],
        ["stats", "--tree", "(())", "--stat", "chi_y"],
        ["homomesy", "--tree", "(())", "--stat", "chi", "--format", "csv"],
        ["verify", "--tree", "(())"],
        ["verify", "--family", "cbt:0"],
        ["verify", "--family", "tk:3,9"],
        ["birational", "--grid", "2y3"],
        ["birational", "--grid", "2x2", "--mode", "modp:9"],
        ["birational", "--grid", "2x2", "--mode", "float"],
        ["pl", "--grid", "2x2", "--mode", "modp:7"],
        ["pl", "--grid", "2x2", "--max-iter", "0"],
        ["birational", "--tree", "(())", "--grid", "2x2"],
        ["pl", "--grid", "2x2", "--format", "csv"],
        ["pl", "--grid", "2x2", "--format", "ascii"],
        ["birational", "--grid", "2x2", "--format", "svg"],
        # spec integers are ASCII decimal digits and nothing else
        ["pl", "--grid", "\u0663x2"],
        ["pl", "--grid", "\u00b2x2"],
        [  # modp:10007 in Arabic-Indic digits
            "birational",
            "--grid",
            "2x2",
            "--mode",
            "modp:\u0661\u0660\u0660\u0660\u0667",
        ],
        ["birational", "--grid", "2x2", "--mode", "modp:abc"],
        ["birational", "--grid", "2x2", "--mode", "modp:+7"],
        ["orbits", "--family", "star:\u0663,2"],
        ["orbits", "--family", "star:3_0"],
        ["orbits", "--family", "star: 3"],
        ["orbits", "--family", "star:+3"],
        ["stats", "--tree", "(())", "--stat", "chi_x:\u0663"],
        # settled before any enumeration, on a tree no budget allows
        ["orbits", "--family", "cbt:6", "--format", "ascii"],
        ["homomesy", "--family", "cbt:6", "--stat", "chi", "--format", "csv"],
        ["homomesy", "--family", "cbt:6", "--stat", "chi_x:999"],
        ["stats", "--family", "cbt:6", "--stat", "chi_x:999"],
        ["stats", "--tree", "(())", "--stat", "chi+hatchi_x:2"],
        ["orbits", "--tree", "(())", "--budget", "0"],
    ]

    def test_usage_errors(self):
        for argv in self.USAGE_CASES:
            code, out, err = run(argv)
            assert code == 2, argv
            assert out == "" and err.startswith("error:"), argv

    def test_refused_format_does_no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("work done before the format was checked")

        # each name is patched where the CLI looks it up
        for module, name in (
            (cli, "all_orbits"),
            (stats, "check_homomesy"),
            (stats, "check_homometry"),
            (families, "verify_family"),
            (continuous, "order_search"),
        ):
            monkeypatch.setattr(module, name, refuse)
        refused = {
            "orbits": ("ascii", "svg"),
            "tiling": ("csv", "ascii", "svg"),
            "render": ("json", "csv"),
            "verify": ("csv", "ascii", "svg"),
            "stats": ("ascii", "svg"),
            "homomesy": ("csv", "ascii", "svg"),
            "homometry": ("csv", "ascii", "svg"),
            "birational": ("csv", "ascii", "svg"),
            "pl": ("csv", "ascii", "svg"),
        }
        assert refused.keys() == cli._VERBS.keys()
        for verb, formats in refused.items():
            argv = [verb, "--family", "cbt:6"]
            if verb in ("stats", "homomesy", "homometry"):
                argv += ["--stat", "chi"]
            for fmt in formats:
                code, out, err = run(argv + ["--format", fmt])
                assert code == 2, (verb, fmt)
                assert out == "" and "not supported here" in err, (verb, fmt)

    def test_budget_exhaustion(self):
        code, out, err = run(["orbits", "--family", "comb:4", "--budget", "5"])
        assert code == 3
        assert "budget" in err

    def test_budget_exhaustion_on_a_count_too_long_to_print(self):
        for argv in (
            ["orbits", "--family", "cbt:14", "--budget", "10"],
            ["stats", "--family", "cbt:14", "--budget", "10", "--stat", "chi"],
        ):
            code, out, err = run(argv)
            assert code == 3 and out == ""
            assert err == (
                "error: enumeration needs at least 10^5797 antichains, budget is 10\n"
            )

    def test_internal_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken enumeration")

        monkeypatch.setattr(cli, "all_orbits", broken)
        code, out, err = run(["orbits", "--tree", "(())"])
        assert code == 4
        assert out == "" and err.startswith("internal error:")
        assert "Traceback" in err and "broken enumeration" in err

    def test_grid_rejected_for_tree_verbs(self, capsys):
        # tree-only verbs do not even accept --grid; argparse exits itself
        with pytest.raises(SystemExit) as exc:
            main(["orbits", "--grid", "2x2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_budget_rejected_for_lifts(self, capsys):
        # the lifts enumerate no antichains, so they take no --budget
        with pytest.raises(SystemExit) as exc:
            main(["pl", "--grid", "2x2", "--budget", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--tree", "(())", "--budget", "\u0663"],
            ["orbits", "--tree", "(())", "--budget", "-1"],
            ["pl", "--grid", "2x2", "--seed", "\u0663"],
            ["pl", "--grid", "2x2", "--seed", "-1"],
            ["pl", "--grid", "2x2", "--max-iter", "1_0"],
        ],
    )
    def test_integer_options_are_ascii_decimals(self, capsys, argv):
        # argparse refuses them itself, as it does an unknown option
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected ASCII decimal digits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--tree", "(())", "--budget", "{}"],
            ["pl", "--grid", "2x2", "--seed", "{}"],
            ["pl", "--grid", "2x2", "--max-iter", "{}"],
            # read by the verb's handler, not by argparse
            ["verify", "--family", "star:{}"],
            ["pl", "--grid", "{}x2"],
            ["birational", "--tree", "(())", "--mode", "modp:{}"],
            ["stats", "--tree", "(())", "--stat", "{}*chi"],
        ],
    )
    def test_integers_past_the_int_string_limit(self, argv):
        # int() refuses more than sys.get_int_max_str_digits() digits with a
        # ValueError, which argparse would report as an invalid _decimal
        code, out, err = exit_code([a.replace("{}", "9" * 5000) for a in argv])
        assert code == 2 and out == ""
        option = argv[-2]  # argparse reads the typed options, a handler the rest
        where = f"argument {option}: " if "type" in cli._OPTIONS[option] else "error: "
        limit = sys.get_int_max_str_digits()
        assert f"{where}expected at most {limit} digits, got 5000" in err
        assert "_decimal" not in err

    def test_stat_and_mode_read_before_the_tree_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("tree built before --stat or --mode was read")

        monkeypatch.setattr(cli, "parse_tree", refuse)
        monkeypatch.setattr(families, "make_family", refuse)
        for source in (["--tree", "(())"], ["--family", "cbt:14"]):
            for verb in ("stats", "homomesy", "homometry"):
                for stat, message in (
                    ("bogus", "cannot parse statistic 'bogus' at position 0"),
                    ("chi_x", "chi_x needs a node id in 'chi_x'"),
                ):
                    code, out, err = run([verb, *source, "--stat", stat])
                    assert (code, out, err) == (2, "", f"error: {message}\n")
            for verb in ("birational", "pl"):
                for mode, message in (
                    ("bogus", "mode wants rational or modp:P, got 'bogus'"),
                    ("modp:x", "expected ASCII decimal digits, got 'x'"),
                ):
                    code, out, err = run([verb, *source, "--mode", mode])
                    assert (code, out, err) == (2, "", f"error: {message}\n")


def exit_code(argv):
    """Exit code, stdout and stderr of ``main(argv)``, argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# texts that are not ASCII decimal digits, or too many of them for int()
BAD_INTEGERS = ["\u0663", "\u00b2", "+3", "3_0", " 3", "-3", "", "9" * 5000]
BAD_IDS = ["arabic-3", "superscript-2", "plus", "underscore", "space", "minus",
           "empty", "5000-nines"]


class TestTextIntegers:
    """Every reader of integers written as text refuses the same texts."""

    # {} marks the integer
    FAMILY_FIELDS = [
        "star:{}",
        "star:3,{}",
        "estar:b={};3,3",
        "estar:b=2;{},3",
        "threeleaf:{},1,1,1,1",
        "threeleaf:1,1,1,1,{}",
        "tk:{}",
        "comb:{}",
        "zipper:{}",
        "cbt:{}",
        "ecomb:n={},k=2",
        "ecomb:n=3,k={}",
    ]
    # a coefficient after the first term, whose sign is its own; the
    # statistic grammar drops spaces, so " 3" reads as 3 there
    STAT_FIELDS = ["chi+{}*hatchi", "2*chi-{}*chi_x:1", "chi_x:{}", "hatchi_x:{}"]
    # (argv, the option whose text holds the integer)
    CLI_FIELDS = [
        (["orbits", "--tree", "(())", "--budget", "{}"], "--budget"),
        (["pl", "--grid", "2x2", "--seed", "{}"], "--seed"),
        (["birational", "--grid", "2x2", "--max-iter", "{}"], "--max-iter"),
        (["pl", "--grid", "{}x2"], "--grid"),
        (["birational", "--grid", "2x{}"], "--grid"),
        (["birational", "--tree", "(())", "--mode", "modp:{}"], "--mode"),
        (["orbits", "--family", "star:3,{}"], "--family"),
        (["verify", "--family", "ecomb:n=3,k={}"], "--family"),
        (["stats", "--tree", "(()())", "--stat", "chi-{}*hatchi"], "--stat"),
        (["homomesy", "--tree", "(()())", "--stat", "chi_x:{}"], "--stat"),
    ]

    @staticmethod
    def refusal(bad):
        """What the refusal of ``bad`` must say, if anything in particular."""
        if len(bad) == 5000:
            return f"expected at most {sys.get_int_max_str_digits()} digits, got 5000"
        return None

    @pytest.mark.parametrize("bad", BAD_INTEGERS, ids=BAD_IDS)
    def test_library_refuses(self, bad):
        readers = [(poset._decimal, "{}")]
        readers += [(parse_family, field) for field in self.FAMILY_FIELDS]
        if bad != " 3":
            readers += [(parse_statistic, field) for field in self.STAT_FIELDS]
        for read, field in readers:
            with pytest.raises(SpecParseError, match=self.refusal(bad)):
                read(field.replace("{}", bad))

    @pytest.mark.parametrize("bad", BAD_INTEGERS, ids=BAD_IDS)
    def test_cli_refuses(self, bad):
        for argv, option in self.CLI_FIELDS:
            if option == "--stat" and bad == " 3":
                continue
            code, out, err = exit_code([a.replace("{}", bad) for a in argv])
            assert code == 2 and out == "", argv
            # the handler's refusal, or argparse's for an option value
            assert err.startswith("error: ") or f"argument {option}: expected" in err
            refusal = self.refusal(bad)
            assert refusal is None or refusal in err, argv
            assert "_decimal" not in err, argv

    def test_decimal_lower_bound(self):
        assert poset._decimal("0042", 42) == 42
        with pytest.raises(SpecParseError, match="expected an integer >= 2, got '1'"):
            poset._decimal("1", 2)


def parse_outcome(parse, argv):
    """Exit code, stdout, stderr and namespace of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code, ns = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), ns


VERBS = sorted({argv[0] for argv in CASES.values()})
PARSER_CASES = (
    list(CASES.values())
    + TestExitCodes.USAGE_CASES
    + [[], ["-h"], ["--help"], ["bogus"], ["bogus", "--tree", "(())"]]
    + [[verb, "-h"] for verb in VERBS]
    + [[verb, "--help"] for verb in VERBS]
    + [
        ["stats", "--tree", "(())"],  # missing --stat
        ["orbits", "--tree", "(())", "--format", "xml"],
        ["orbits", "--tree", "(())", "--budget", "x"],
        ["orbits", "--fam", "star:2,2"],  # abbreviated
        ["pl", "--t", "x"],  # ambiguous: --tree or --timing
        ["orbits", "extra", "--tree", "(())"],
        ["orbits", "--tree", "(())", "extra"],
        ["orbits", "--grid", "2x2"],
        ["pl", "--grid", "2x2", "--budget", "5"],
        ["orbits", "--tree", "(())", "--budget", "\u0663"],
        ["orbits", "--tree", "(())", "--budget", "-1"],
        ["pl", "--grid", "2x2", "--seed", "\u0663"],
        ["pl", "--grid", "2x2", "--max-iter", "1_0"],
        ["--", "orbits", "--tree", "(())"],
        ["orbits", "--", "--tree", "(())"],
        ["orbits", "--tree", "(())", "--"],
        ["-h", "orbits"],
        ["orbits", "--tree", "(())", "-h"],
    ]
)


# values of each option that a verb may accept, and values that need the
# full parser's judgement
GOOD_VALUES = {
    "--tree": ["(())", "((()))"],
    "--family": ["star:2,2"],
    "--grid": ["2x2"],
    "--format": ["json", "csv", "ascii", "svg", "xml"],
    "--budget": ["5", "0"],
    "--stat": ["chi", "hatchi_x:1"],
    "--seed": ["3"],
    "--max-iter": ["10"],
    "--mode": ["rational", "modp:5"],
}
ODD_VALUES = ["", "-x", "-1", "\u0663", "1_0", "9" * 5000, "--", "-h"]


def random_argv(rng):
    """A verb and up to four tokens or options: mostly the verb's own
    options spelled exactly, else abbreviated, ``=``-joined or another
    verb's, with good or odd values, and now and then a stray token."""
    verb = rng.choice(list(cli._VERBS))
    _, own, _ = cli._VERBS[verb]
    argv = [verb]
    for _ in range(rng.randrange(5)):
        if rng.random() < 0.05:
            argv.append(rng.choice(ODD_VALUES + ["extra", "orbits"]))
            continue
        name = rng.choice(own if rng.random() < 0.85 else list(cli._OPTIONS))
        spelled = name
        if rng.random() < 0.08:
            spelled = name[: rng.randrange(3, len(name))]
        if name == "--timing":
            argv.append(spelled)
            continue
        good = GOOD_VALUES[name]
        value = rng.choice(good if rng.random() < 0.85 else ODD_VALUES)
        if rng.random() < 0.05:
            argv.append(f"{spelled}={value}")
        else:
            argv += [spelled, value]
    return argv


class TestParser:
    """``main`` reads a clean verb call itself and leaves the rest to the
    full parser; either way it must parse as the full one does."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=map(repr, PARSER_CASES))
    def test_matches_full_parser(self, argv):
        full = parse_outcome(cli._build_parser().parse_args, argv)
        assert parse_outcome(cli._parse_args, argv) == full

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--tree", "(())"],
            ["pl", "--grid", "2x2", "--timing"],
            ["orbits", "--grid", "2x2"],
            ["stats", "-h"],
            [],
        ],
    )
    def test_reads_sys_argv(self, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["treerow", *argv])
        full = parse_outcome(cli._build_parser().parse_args, None)
        assert parse_outcome(cli._parse_args, None) == full

    def test_random_argvs_match_full_parser(self):
        rng = random.Random(28)
        read = 0
        for _ in range(400):
            argv = random_argv(rng)
            full = parse_outcome(cli._build_parser().parse_args, argv)
            assert parse_outcome(cli._parse_args, argv) == full, argv
            read += cli._read_args(argv[0], argv[1:]) is not None
        # both the reader and the full parser decide a fair share
        assert 100 < read < 300

    def test_clean_call_builds_no_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out, _ = run(["orbits", "--tree", "(())"])
        assert code == 0 and json.loads(out)["antichains"] == 3
        assert built == []
        code, out, _ = run(["orbits", "--tr", "(())"])
        assert code == 0 and json.loads(out)["antichains"] == 3
        assert built == ["treerow", *(f"treerow {verb}" for verb in cli._VERBS)]


def reference_json(obj):
    """``json.dumps(obj, indent=2)``, an ``Orbit`` spelled as the list of its
    members' id lists, which is how the CLI writes one."""
    return json.dumps(obj, indent=2, default=lambda o: o.as_id_lists()) + "\n"


# orbits of distinct members with ids on both sides of byte boundaries
ORBITS = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=299), max_size=6),
    min_size=1,
    max_size=5,
    unique=True,
).map(Orbit)
# documents of the types the CLI writes; orbits and long int lists take
# the writer's fast paths
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
    | ORBITS
)
DOCUMENTS = st.recursive(
    SCALARS | st.lists(st.integers()) | st.lists(st.lists(st.integers(), max_size=4)),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=30,
)


class TestJsonWriter:
    """The CLI's JSON writer against ``json.dumps(obj, indent=2)``."""

    def test_every_golden_document(self, monkeypatch):
        docs = []
        emit = cli._emit_json

        def recording(obj):
            docs.append(obj)
            return emit(obj)

        monkeypatch.setattr(cli, "_emit_json", recording)
        for argv in CASES.values():
            run(argv)
        assert len(docs) == sum(n.endswith(".json") for n in CASES)
        for doc in docs:
            assert emit(doc) == reference_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            [[]],
            [[], []],
            [[], [0], [1, 3, 5], []],
            [True, 1, False, 0, None],
            [[True], [1]],
            [[[0, 1], [2]], [], [[]], [[3], []]],
            {"a": [[[1]], [[], [2, 3]]], "b": []},
            [0, [1, [2, [3, []]]]],
            {"": "", "k\u00e9y": "\"\\\n\t\u0001 \u00e9\u4e2d\U0001f600"},
            [-1, 0, 2**64, -(2**100)],
            {"a": [[1, 2], [3]], "b": {"c": []}, "d": [{}, [], ""]},
        ],
    )
    def test_edge_documents(self, doc):
        assert cli._emit_json(doc) == reference_json(doc)

    @settings(max_examples=200, deadline=None)
    @given(DOCUMENTS)
    def test_random_documents(self, doc):
        assert cli._emit_json(doc) == reference_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [1.5, [1, 2.0], (1, 2), [[1], (2,)], [[1, 0.5]], {1: 2}, {"a": {None: 1}}],
    )
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            cli._emit_json(doc)


# ids at the ends of the first bytes and of the first two 64-bit words
EDGE_IDS = [0, 7, 8, 63, 64, 299]


class TestOrbitWriter:
    """Orbits written from their masks against ``json.dumps`` of their id
    lists."""

    @pytest.mark.parametrize(
        "orbit",
        [
            Orbit([EDGE_IDS]),
            Orbit([[x] for x in EDGE_IDS]),
            Orbit([EDGE_IDS, [0, 299], [7, 8], [63, 64], [8, 9, 10, 11, 12, 13, 14, 15]]),
            Orbit([[]]),
            Orbit([[], [0]]),
            Orbit([[0], [], [1, 2]]),
            Orbit([[299]]),
        ],
    )
    def test_members(self, orbit):
        for doc in (orbit, [orbit], {"members": orbit}, [[orbit, [orbit]]]):
            assert cli._emit_json(doc) == reference_json(doc)

    def test_two_depths_in_one_document(self):
        # the byte texts are kept per line indent within one document
        a, b = Orbit([EDGE_IDS, [1], []]), Orbit([[8, 64], [7]])
        doc = {
            "orbits": [cli._orbit_record(a, 1), cli._orbit_record(b, 2)],
            "witness": {"orbits": [cli._orbit_record(b, 1), cli._orbit_record(a, 2)]},
            "bare": [a, b],
        }
        assert cli._emit_json(doc) == reference_json(doc)

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--tree", "(" * 300 + ")" * 300],
            ["orbits", "--family", "cbt:3"],
            ["orbits", "--family", "comb:6"],
        ],
    )
    def test_cli_output_is_json_dumps_of_itself(self, argv):
        code, out, _ = run(argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestModuleEntryPoint:
    def test_python_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "treerow.cli", "orbits", "--tree", "(())"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["antichains"] == 3
