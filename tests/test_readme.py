"""The README's code runs and gives the values its comments state."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def run(block):
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def stated_values(block):
    """``(expression, value)`` for each line ``expression  # value`` whose
    comment is a value (prose comments are skipped)."""
    out = []
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if not sep or not code.strip():
            continue
        try:
            value = eval(comment.strip(), {"__builtins__": {}, "Fraction": Fraction})
        except (SyntaxError, NameError):
            continue
        out.append((code.strip(), value))
    return out


@pytest.mark.parametrize("block", BLOCKS)
def test_block_runs_and_states_true_values(block, capsys):
    namespace = run(block)
    capsys.readouterr()
    for code, value in stated_values(block):
        assert eval(code, namespace) == value, code


def test_stated_values_are_checked():
    stated = dict(pair for block in BLOCKS for pair in stated_values(block))
    assert stated == {
        "orbit_sum(tree, chi, orbits[0])": 12,
        "v.is_homomesic, v.constant": (True, Fraction(1, 1)),
        "orbit_sums_from_tiling(tree, tiling).chi": 12,
        "tile_counts(tiling)[(1, 3)]": (1, 5),
        "res.outcome, res.order": ("finite-order", 5),
    }


def test_quick_tour_orbit_sizes_and_drawing(capsys):
    tour = next(block for block in BLOCKS if "all_orbits" in block)
    assert "# sizes 7, 6, 6 here" in tour
    assert [o.size for o in run(tour)["orbits"]] == [7, 6, 6]
    assert capsys.readouterr().out == (
        "|.|#|# #|.|# #|\n|.|#|# #|.|# #|\n|.|#|#|.|#|.|#|\n\n"
    )
