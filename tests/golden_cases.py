"""Shared table of golden-file CLI invocations.

Every verb appears at least once; scripts/regen_goldens.py rewrites the
expected outputs from this table, test_cli.py replays them and demands
byte-identical stdout.
"""

CASES = {
    "orbits_star332.json": ["orbits", "--tree", "((())(())())"],
    "orbits_star332.csv": ["orbits", "--tree", "((())(())())", "--format", "csv"],
    "tiling_star33.json": ["tiling", "--family", "star:3,3"],
    "render_star332.txt": ["render", "--family", "star:3,3,2"],
    "render_star33.svg": ["render", "--family", "star:3,3", "--format", "svg"],
    "stats_star332_chi.json": ["stats", "--family", "star:3,3,2", "--stat", "chi"],
    "stats_star332_chi.csv": [
        "stats", "--family", "star:3,3,2", "--stat", "chi", "--format", "csv",
    ],
    "homomesy_star332_weighted.json": [
        "homomesy", "--family", "star:3,3,2", "--stat", "3*chi_x:1+1*chi_x:0",
    ],
    "homomesy_star332_chi.json": [
        "homomesy", "--family", "star:3,3,2", "--stat", "chi",
    ],
    "homometry_star332_chi.json": [
        "homometry", "--family", "star:3,3,2", "--stat", "chi",
    ],
    "homometry_cbt3_hatchi.json": ["homometry", "--family", "cbt:3", "--stat", "hatchi"],
    "stats_cbt3_hatchi.json": ["stats", "--family", "cbt:3", "--stat", "hatchi"],
    "stats_cbt3_mixed.csv": [
        "stats", "--family", "cbt:3", "--stat", "2*hatchi_x:3-chi_x:0-3*hatchi",
        "--format", "csv",
    ],
    "homomesy_cbt3_hatchi_x2.json": [
        "homomesy", "--family", "cbt:3", "--stat", "hatchi_x:2",
    ],
    "verify_tk2.json": ["verify", "--family", "tk:2"],
    "verify_zipper1.json": ["verify", "--family", "zipper:1"],
    "verify_cbt3.json": ["verify", "--family", "cbt:3"],
    "verify_threeleaf12321.json": ["verify", "--family", "threeleaf:1,2,3,2,1"],
    "birational_grid22.json": ["birational", "--grid", "2x2", "--seed", "1"],
    "birational_grid22_modp.json": [
        "birational", "--grid", "2x2", "--seed", "1", "--mode", "modp:10007",
    ],
    "pl_grid23.json": ["pl", "--grid", "2x3", "--seed", "1"],
}
