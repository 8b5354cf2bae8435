"""Exceptions shared across the package.

Only errors the CLI must tell apart get their own class; everything else
is a plain ``ValueError`` with a message.
"""

__all__ = [
    "TreerowError",
    "SpecParseError",
    "BudgetExceededError",
    "UnsupportedFamilyError",
    "ZeroInFieldError",
    "RetriesExhaustedError",
]


class TreerowError(Exception):
    """Base class for package-specific errors."""


class SpecParseError(TreerowError, ValueError):
    """A tree/family/statistic spec string could not be parsed."""


class BudgetExceededError(TreerowError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration needs {needed} antichains, budget is {budget}")
        self.needed = needed
        self.budget = budget


class UnsupportedFamilyError(TreerowError, ValueError):
    """No closed-form orbit predictor exists for the requested family."""


class ZeroInFieldError(TreerowError, ZeroDivisionError):
    """A birational step produced or divided by zero in the scalar field."""


class RetriesExhaustedError(TreerowError):
    """Restart budget exhausted while resampling around field zeros."""
