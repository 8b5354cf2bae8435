"""Rowmotion on rooted trees: orbits, cylinder tilings, statistics,
closed-form family profiles, and continuous (PL/birational) variants.

``import treerow`` loads no submodule.  A public name is imported from
its submodule the first time it is read (PEP 562) and then kept in this
namespace, so a run compiles and runs only the modules it uses: reading
``treerow.order_search`` loads ``errors``, ``poset``, ``rowmotion`` and
``continuous``, never ``tiling``, ``stats`` or ``families``.

``_EXPORTS`` is the one list of public names: each submodule reads its
own ``__all__`` from it, and this namespace its ``__all__`` and the home
of each name.
"""

from importlib import import_module

# submodule -> the public names it defines; its ``__all__`` is read from here
_EXPORTS = {
    "errors": (
        "BudgetExceededError",
        "RetriesExhaustedError",
        "SpecParseError",
        "TreerowError",
        "UnsupportedFamilyError",
        "ZeroInFieldError",
    ),
    "poset": (
        "IntervalSpec",
        "Poset",
        "RootedTree",
        "chain_product",
        "count_antichains",
        "down_set",
        "interval_partition",
        "intervals",
        "linear_extension",
        "parse_tree",
    ),
    "rowmotion": (
        "DEFAULT_ANTICHAIN_BUDGET",
        "Orbit",
        "all_orbits",
        "enumerate_antichains",
        "orbit_of",
        "rho_antichain",
        "rho_ideal",
        "rho_via_toggles",
        "toggle",
    ),
    "tiling": (
        "Tile",
        "Tiling",
        "TilingReport",
        "orbit_of_tiling",
        "render_tiling",
        "tile_counts",
        "tiling_of_orbit",
        "validate_tiling",
    ),
    "stats": (
        "HomometryVerdict",
        "HomomesyVerdict",
        "Statistic",
        "TilingSums",
        "check_homomesy",
        "check_homometry",
        "eval_statistic",
        "orbit_sum",
        "orbit_sums_from_tiling",
        "parse_statistic",
    ),
    "families": (
        "Comb",
        "CompleteBinary",
        "ExtendedComb",
        "ExtendedStar",
        "FamilyDescriptor",
        "FamilyReport",
        "OrbitClass",
        "OrbitProfile",
        "Star",
        "ThreeLeaf",
        "Tk",
        "Zipper",
        "chain",
        "combine_profiles",
        "descriptor_string",
        "extend_root_transfer",
        "family_spec",
        "graft",
        "make_family",
        "observed_profile",
        "parse_family",
        "predicted_profile",
        "verify_family",
    ),
    "continuous": (
        "DEFAULT_MAX_ITER",
        "LabeledPoint",
        "OrderSearchResult",
        "birational_rowmotion",
        "birational_toggle",
        "ideal_of_indicator",
        "indicator_point",
        "order_search",
        "pl_rowmotion",
        "pl_toggle",
        "random_birational_point",
        "random_pl_point",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name, or a submodule, on its first read."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
