"""Start-up cost: `import treerow` loads no submodule, a public name loads
only the modules it needs, and each CLI verb loads only its own layers."""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import treerow

LAYERS = {"errors", "poset", "rowmotion", "tiling", "stats", "families", "continuous"}


def fresh(code: str, result: str):
    """Run ``code`` in a fresh interpreter, then return ``result``
    evaluated there (a JSON value)."""
    # json is imported after ``result`` is read, so that it does not count
    probe = f"import sys\n{code}\n_result = {result}\nimport json\nprint(json.dumps(_result))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The treerow submodules a fresh interpreter holds after ``code``."""
    loaded = "[m[8:] for m in sys.modules if m.startswith('treerow.')]"
    return set(fresh(code, loaded))


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        assert loaded_after("import treerow") == set()

    def test_a_name_loads_only_its_imports(self):
        code = "import treerow\ntreerow.order_search"
        assert loaded_after(code) == {"errors", "poset", "rowmotion", "continuous"}

    def test_table_matches_each_submodule(self):
        package = Path(treerow.__file__).parent
        assert {p.stem for p in package.glob("*.py")} == LAYERS | {"__init__", "cli"}
        assert treerow._EXPORTS.keys() == LAYERS
        for name, exported in treerow._EXPORTS.items():
            module = import_module(f"treerow.{name}")
            assert sorted(exported) == sorted(module.__all__), name
        assert len(treerow.__all__) == len(set(treerow.__all__))
        assert set(treerow.__all__) == set(treerow._HOME)

    def test_names_are_the_submodules_objects(self):
        for name in treerow.__all__:
            module = import_module(f"treerow.{treerow._HOME[name]}")
            assert getattr(treerow, name) is getattr(module, name), name
            assert name in vars(treerow), name  # kept after the first read

    def test_dir_covers_all(self):
        # in a fresh process, before any name has been read
        listed, names, loaded = fresh(
            "import treerow",
            "[dir(treerow), treerow.__all__, "
            "[m for m in sys.modules if m.startswith('treerow.')]]",
        )
        assert set(names) <= set(listed) and "__version__" in listed
        assert listed == sorted(listed) and loaded == []

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from treerow import *", namespace)
        for name in treerow.__all__:
            assert namespace[name] is getattr(treerow, name), name

    def test_submodules_by_name(self):
        from treerow import rowmotion

        assert rowmotion is import_module("treerow.rowmotion")
        assert treerow.families is import_module("treerow.families")
        # a submodule read as an attribute is imported on that read
        code = "import treerow\norbit = treerow.rowmotion.Orbit"
        assert loaded_after(code) == {"errors", "poset", "rowmotion"}

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            treerow.no_such_name
        with pytest.raises(ImportError):
            exec("from treerow import no_such_name", {})
        with pytest.raises(AttributeError):
            treerow.cli_main  # neither a public name nor a submodule


def test_cli_does_not_load_the_json_decoder():
    """The CLI writes JSON with its own writer and the C string encoder;
    importing ``json.encoder`` would load the decoder and scanner too."""
    loaded = fresh(
        "import treerow.cli",
        "[m for m in ('json', 'json.decoder', 'json.scanner', 'json.encoder')"
        " if m in sys.modules]",
    )
    assert loaded == []


class TestCliModuleSets:
    """The layers each verb loads in a fresh process."""

    @staticmethod
    def loaded(argv: list[str]) -> set[str]:
        code = (
            "import contextlib, io\n"
            "from treerow.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
        )
        return loaded_after(code) - {"cli"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbits", "--tree", "((())(())())"],
            ["orbits", "--tree", "(()())", "--format", "csv"],
            ["stats", "--tree", "((())(())())", "--stat", "chi"],
            ["homometry", "--tree", "((())(())())", "--stat", "chi"],
        ],
    )
    def test_enumeration_verbs(self, argv):
        loaded = self.loaded(argv)
        assert not loaded & {"families", "tiling", "continuous"}, loaded

    def test_lifts(self):
        loaded = self.loaded(["birational", "--grid", "2x2"])
        assert loaded == {"errors", "poset", "rowmotion", "continuous"}

    def test_verify(self):
        loaded = self.loaded(["verify", "--family", "star:2,2"])
        assert "continuous" not in loaded and "families" in loaded

    def test_parser_of_a_non_lift_verb(self):
        code = (
            "from treerow import cli\n"
            "cli._parse_args(['homomesy', '--tree', '(())', '--stat', 'chi'])"
        )
        assert loaded_after(code) == {"cli", "errors", "poset", "rowmotion"}
