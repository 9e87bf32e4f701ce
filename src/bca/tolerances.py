"""The tolerance policy of every floating-point decision, apart from
:mod:`bca.numerics` (which re-exports it) so that building one needs no numpy."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative tolerances used by every decision in the package.

    ``definiteness_tol`` gates eigenvalue sign decisions, ``rank_tol``
    gates numerical-rank decisions, ``zero_tol`` gates coefficient zero
    tests.  All are relative to a scale derived from the data, so scaling
    a whole problem never changes a verdict.
    """

    definiteness_tol: float = 1e-9
    rank_tol: float = 1e-10
    zero_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("definiteness_tol", "rank_tol", "zero_tol"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1e-2:
                raise InvalidInput(f"{name} must lie in [0, 1e-2], got {value!r}")


DEFAULT_TOLERANCES = TolerancePolicy()
