"""Poincare polynomials and the rational series q(t) / (1 - t^2)^v.

All arithmetic is exact integer arithmetic; expansion works by repeated
truncated multiplication with the geometric series for 1 / (1 - t^2)
(a prefix sum over every other coefficient), so no binomials are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fplin import InvalidInput

__all__ = [
    "PoincarePolynomial",
    "PoincareSeries",
    "SeriesChecks",
    "from_betti",
    "expand",
    "recompose",
    "recomposes_to_numerator",
    "verify_expansion",
    "checks",
]


@dataclass(frozen=True)
class PoincarePolynomial:
    """Nonnegative integer coefficients, lowest degree first, no trailing zeros."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        co = tuple(int(c) for c in self.coefficients)
        if any(c < 0 for c in co):
            raise InvalidInput("coefficients must be nonnegative")
        while co and co[-1] == 0:
            co = co[:-1]
        object.__setattr__(self, "coefficients", co)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append("t" if c == 1 else f"{c}t")
            else:
                parts.append(f"t^{d}" if c == 1 else f"{c}t^{d}")
        return " + ".join(parts)


@dataclass(frozen=True)
class PoincareSeries:
    """q(t) / (1 - t^2)^v with an integer denominator exponent v >= 0."""

    numerator: PoincarePolynomial
    denominator_exponent: int

    def __post_init__(self):
        if self.denominator_exponent < 0:
            raise InvalidInput("denominator exponent must be nonnegative")

    def __str__(self) -> str:
        q = f"({self.numerator})"
        v = self.denominator_exponent
        return q if v == 0 else f"{q} / (1 - t^2)^{v}"


def from_betti(b) -> PoincarePolynomial:
    """Polynomial with the homology dimensions as coefficients.

    Accepts a BettiTable or any coefficient sequence.
    """
    dims = getattr(b, "dims", b)
    return PoincarePolynomial(tuple(dims))


def expand(s: PoincareSeries, n: int) -> list[int]:
    """Exact coefficients of the series through degree n (length n + 1)."""
    if n < 0:
        raise InvalidInput("truncation degree must be nonnegative")
    co = list(s.numerator.coefficients[: n + 1])
    co += [0] * (n + 1 - len(co))
    for _ in range(s.denominator_exponent):
        for d in range(2, n + 1):
            co[d] += co[d - 2]
    return co


def recompose(coefficients: Sequence[int], v: int) -> list[int]:
    """Multiply truncated series coefficients by (1 - t^2)^v."""
    co = [int(c) for c in coefficients]
    for _ in range(v):
        for d in range(len(co) - 1, 1, -1):
            co[d] -= co[d - 2]
    return co


def recomposes_to_numerator(s: PoincareSeries, coefficients: Sequence[int]) -> bool:
    """Check that coefficients * (1 - t^2)^v recovers q(t) through their last degree."""
    n = len(coefficients) - 1
    q = list(s.numerator.coefficients[: n + 1])
    q += [0] * (n + 1 - len(q))
    return recompose(coefficients, s.denominator_exponent) == q


def verify_expansion(s: PoincareSeries, n: int) -> bool:
    """Check that expand(s, n) * (1 - t^2)^v recovers q(t) through degree n."""
    return recomposes_to_numerator(s, expand(s, n))


@dataclass(frozen=True)
class SeriesChecks:
    """Raw facts about a numerator against its complex dimensions (w, r)."""

    palindrome: bool
    euler_zero: bool
    degree_match: bool

    def ok(self, w: int) -> bool:
        """All applicable checks pass; the Euler check only binds for w >= 1."""
        return self.palindrome and self.degree_match and (w == 0 or self.euler_zero)


def checks(q: PoincarePolynomial, w: int, r: int) -> SeriesChecks:
    co = q.coefficients
    return SeriesChecks(
        palindrome=co == co[::-1],
        euler_zero=q(-1) == 0,
        degree_match=q.degree == w + r,
    )
