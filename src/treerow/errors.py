"""Exceptions shared across the package.

Only errors the CLI must tell apart get their own class; everything else
is a plain ``ValueError`` with a message.
"""

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class TreerowError(Exception):
    """Base class for package-specific errors."""


class SpecParseError(TreerowError, ValueError):
    """A tree/family/statistic spec string could not be parsed."""


def _count(value: int) -> str:
    """Decimal below 10^18, else the largest power of ten reached: Python
    writes no int of more than 4,300 digits in decimal."""
    if value < 10**18:
        return str(value)
    k = (value.bit_length() - 1) * 30102 // 100000  # 0.30102 < log10(2)
    return f"at least 10^{k + len(str(value // 10**k)) - 1}"


class BudgetExceededError(TreerowError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, needed: int, budget: int):
        needs, cap = _count(needed), _count(budget)
        super().__init__(f"enumeration needs {needs} antichains, budget is {cap}")
        self.needed = needed
        self.budget = budget


class UnsupportedFamilyError(TreerowError, ValueError):
    """No closed-form orbit predictor exists for the requested family."""


class ZeroInFieldError(TreerowError, ZeroDivisionError):
    """A birational step produced or divided by zero in the scalar field."""


class RetriesExhaustedError(TreerowError):
    """Restart budget exhausted while resampling around field zeros."""
