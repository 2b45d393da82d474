"""Exception types shared across the package.

Every error raised on purpose is one of these four, so callers (and the
CLI exit-code mapping) can dispatch on type alone.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or inconsistent input: bad ids, negative profits,
    infeasible pinned sets, unparsable files."""


class CapacityError(RuntimeError):
    """An exact/exhaustive routine was asked to run beyond its configured
    size gate.  Never raised by the approximation path itself."""


class DegenerateAlpha(Exception):
    """alpha = 0: every feasible solution has profit 0 and the profit-class
    machinery is undefined.  Callers treat the empty set as optimal."""


class InvariantError(AssertionError):
    """A result broke a guarantee the package promises: an infeasible
    combined solution, a size bound exceeded.  Raised explicitly so the
    check survives ``python -O``; an AssertionError, so callers and the
    CLI (exit code 4) treat it as an internal failure."""
