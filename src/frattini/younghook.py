"""Homology dimensions of the universal extensions via symmetric Young diagrams.

The degree-i dimension for n generators is a sum of hook-content evaluations

    a_i = sum over f + g = i, over self-conjugate diagrams Y with f + 2g
          boxes and f diagonal hooks, of  prod_{(s,t) in Y} (n + t - s) / h(s, t)

where h is the hook length.  Self-conjugate diagrams with f diagonal boxes
biject with partitions into f distinct odd parts (unfold the diagonal hooks),
which is how enumeration works here.  A diagram with more than n rows has a
cell of content -n, so it contributes 0; its first odd part, twice its row
count less one, then exceeds 2n - 1, which is how ``unp_betti`` prunes it.
Everything is exact: the product is taken as an integer numerator (the
contents) over an integer denominator (the hooks), and the division must
leave no remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

__all__ = [
    "SelfConjugatePartition",
    "NonIntegerResult",
    "enumerate_self_conjugate",
    "hook_content_dimension",
    "unp_betti",
    "closed_form",
]

DEFAULT_N_CAP = 8


class NonIntegerResult(ArithmeticError):
    """The hook-content product failed to be an integer (internal check)."""


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for q in parts if q >= j) for j in range(1, parts[0] + 1))


@dataclass(frozen=True)
class SelfConjugatePartition:
    """A partition equal to its transpose; parts weakly decreasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(q) for q in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(q <= 0 for q in parts) or any(
            parts[i] < parts[i + 1] for i in range(len(parts) - 1)
        ):
            raise ValueError(f"{parts} is not a partition")
        if _conjugate(parts) != parts:
            raise ValueError(f"{parts} is not self-conjugate")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def diagonal(self) -> int:
        return sum(1 for i, q in enumerate(self.parts, 1) if q >= i)


def _distinct_odd(total: int, count: int, max_part: int):
    """Partitions of ``total`` into ``count`` distinct odd parts, descending."""
    if count == 0:
        if total == 0:
            yield ()
        return
    smallest_rest = (count - 1) ** 2  # 1 + 3 + ... + (2(count-1) - 1)
    top = min(max_part, total - smallest_rest)
    if top % 2 == 0:
        top -= 1
    for o in range(top, 2 * count - 3, -2):
        for rest in _distinct_odd(total - o, count - 1, o - 2):
            yield (o,) + rest


def _fold(odds: tuple[int, ...]) -> tuple[int, ...]:
    """Fold distinct odd hook lengths into a self-conjugate partition."""
    f = len(odds)
    arms = [(o - 1) // 2 for o in odds]
    rows = [i + arms[i - 1] for i in range(1, f + 1)]
    for j in range(f + 1, (1 + arms[0]) + 1 if f else 1):
        rows.append(sum(1 for i in range(f) if (i + 1) + arms[i] >= j))
    return tuple(rows)


def enumerate_self_conjugate(size: int, diagonal: int) -> list[SelfConjugatePartition]:
    """All self-conjugate partitions of ``size`` with the given diagonal length.

    Deterministic order: parts tuples descending lexicographically.
    """
    if size < 0 or diagonal < 0:
        raise ValueError("size and diagonal must be nonnegative")
    out = [SelfConjugatePartition(_fold(odds)) for odds in _distinct_odd(size, diagonal, size)]
    out.sort(key=lambda sc: sc.parts, reverse=True)
    return out


def hook_content_dimension(part: SelfConjugatePartition, n: int) -> int:
    """prod over cells of (n + column - row) / hook(cell), exactly.

    Vanishes whenever the diagram has more than n rows.  Raises
    NonIntegerResult if the denominator fails to cancel (never expected).
    """
    parts = part.parts
    return _hook_content(parts, n) if len(parts) <= n else 0


def _hook_content(parts: tuple[int, ...], n: int) -> int:
    """``hook_content_dimension`` of a diagram with at most n rows, as
    (product of contents) // (product of hooks) with the remainder checked."""
    conj = _conjugate(parts)
    num = den = 1
    for s, row_len in enumerate(parts, 1):
        for t in range(1, row_len + 1):
            num *= n + t - s
            den *= (row_len - t) + (conj[t - 1] - s) + 1
    q, rem = divmod(num, den)
    if rem:
        raise NonIntegerResult(f"hook-content product {num}/{den} for {parts}, n={n}")
    return q


def _row_bounded(size: int, diagonal: int, n: int):
    """The self-conjugate diagrams of ``size`` with ``diagonal`` diagonal cells
    and at most n rows: first odd part at most 2n - 1."""
    return map(_fold, _distinct_odd(size, diagonal, 2 * n - 1))


def unp_betti(n: int) -> list[int]:
    """Dimensions a_0..a_m for the universal extension on n generators, m = C(n+1, 2).

    Only diagrams with at most n rows are enumerated (``_row_bounded``); the
    others contribute 0.  Capped at n <= DEFAULT_N_CAP (8).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DEFAULT_N_CAP:
        raise ValueError(f"n = {n} exceeds the cap {DEFAULT_N_CAP}")
    m = comb(n + 1, 2)
    out = [0] * (m + 1)
    out[0] = 1
    for i in range(1, m + 1):
        out[i] = sum(
            _hook_content(parts, n) for f in range(i + 1) for parts in _row_bounded(f + 2 * (i - f), f, n)
        )
    return out


def closed_form(n: int, i: int) -> int:
    """Known closed forms for the first few dimensions (i <= 3)."""
    if i == 0:
        return 1
    if i == 1:
        return n
    if i == 2:
        return n * (n + 1) * (n - 1) // 3
    if i == 3:
        return n * (n * n - 1) * (3 * n - 4) * (n + 3) // 60
    raise ValueError(f"no closed form wired in for i = {i}")
