"""The benchmark's workloads.

Each module has ``inputs(seed)``, the workload's inputs made by the
benchmark's own code from the seed, and ``ops(inputs) -> list[Op]``, the
fixed operations of one round built on them.  An operation's ``run``
calls the program and returns what it produced; ``check`` compares that
with the reference code in ``oracle`` and returns None or a description
of the first fault.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Raised:
    """What an operation's ``run`` produced when the program raised."""

    error: BaseException


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    # set on operations that fail today because of a known fault
    known_fault: Optional[str] = None
    # counts read off the output in traced runs
    counts: Optional[Callable[[Any], dict]] = None


MODULES = {
    "cli-wide": "cli_wide",
    "tiling-sweep": "tiling_sweep",
    "deep-orbits": "deep_orbits",
    "lifts": "lifts",
}


def module(name: str):
    """The workload's module; only it (and what it imports) is loaded."""
    return importlib.import_module(f".{MODULES[name]}", __name__)


def build(name: str, seed: int):
    workload = module(name)
    return workload.ops(workload.inputs(seed))
