#!/usr/bin/env python3
"""Hunt for a finite birational rowmotion order on non-graded rooted trees.

For each tree (random, or supplied via --tree) the map is iterated from
random starting points, mod a large prime so coordinate size stays flat.
A short exact-arithmetic search is also run to report how fast the
numbers blow up; it stops early once a coordinate passes the library's
bit cap (`treerow.continuous.MAX_EXACT_BITS`).  Trees where every leaf
sits at the same depth are skipped: on those the order is already
known, the interesting ones are the rest.

    python3 scripts/nongraded_order_search.py --trials 20 --nodes 8
    python3 scripts/nongraded_order_search.py --tree "(()(()))" --max-iter 200000
"""

import argparse
import random
import sys
from functools import partial

from treerow import RootedTree, order_search, parse_tree
from treerow.cli import _decimal
from treerow.continuous import _is_prime
from treerow.errors import SpecParseError

DEFAULT_PRIME = 2**61 - 1


def prime(text):
    value = _decimal(text, 2)
    if not _is_prime(value):
        raise argparse.ArgumentTypeError(f"expected a prime modulus, got {text!r}")
    return value


def tree_spec(text):
    try:
        return parse_tree(text)
    except SpecParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def leaf_depths(tree):
    out = set()
    for leaf in tree.leaves:
        d, x = 0, leaf
        while tree.parents[x] is not None:
            d, x = d + 1, tree.parents[x]
        out.add(d)
    return out


def random_tree(rng, n):
    # ids must come out in preorder, so each new node attaches somewhere
    # on the rightmost path of what is built so far
    parents = [None]
    path = [0]
    for x in range(1, n):
        k = rng.randrange(len(path))
        parents.append(path[k])
        path[k + 1 :] = [x]
    return RootedTree(parents)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--tree", action="append", type=tree_spec, default=[], help="tree spec, repeatable"
    )
    ap.add_argument("--trials", type=_decimal, default=10, help="random trees to draw")
    ap.add_argument(
        "--nodes", type=partial(_decimal, low=1), default=8, help="nodes per random tree"
    )
    ap.add_argument("--seed", type=_decimal, default=0)
    ap.add_argument("--max-iter", type=partial(_decimal, low=1), default=10**5)
    ap.add_argument("--prime", type=prime, default=DEFAULT_PRIME)
    ap.add_argument(
        "--exact-steps",
        type=_decimal,
        default=50,
        help="max iterations of the exact-arithmetic blowup probe (0 disables)",
    )
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    trees = list(args.tree)
    while len(trees) < len(args.tree) + args.trials:
        trees.append(random_tree(rng, args.nodes))

    found = 0
    for tree in trees:
        spec = tree.to_spec()
        depths = leaf_depths(tree)
        if len(depths) == 1:
            print(f"{spec:24s} graded (leaf depth {depths.pop()}), skipped")
            continue
        res = order_search(
            tree,
            kind="birational",
            p=args.prime,
            rng=random.Random(args.seed),
            max_iter=args.max_iter,
        )
        line = f"{spec:24s} mod-p {res.outcome}"
        if res.order is not None:
            line += f" order={res.order}"
            found += 1
        line += f" after {res.iterations_used} iterations"
        if res.restarts:
            line += f" ({res.restarts} restarts)"
        if args.exact_steps:
            exact = order_search(
                tree, rng=random.Random(args.seed), max_iter=args.exact_steps
            )
            line += (
                f"; exact probe -> {exact.max_bits} bits"
                f" in {exact.iterations_used} steps"
            )
        print(line)
    print(f"\nfinite order found on {found} tree(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
