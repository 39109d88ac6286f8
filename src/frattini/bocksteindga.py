"""Bigraded model with the primary Bockstein as a derivation (odd p > 3).

The algebra has an exterior block on degree-1 generators x_1..x_n and
x_(i,j) for i < j, and a polynomial block on degree-2 generators z_1..z_n and
z_(i,j).  The Bockstein acts by

    beta(x_k) = 0                  beta(x_(i,j)) = -x_i x_j
    beta(z_k) = 0                  beta(z_(i,j)) = z_i x_j - z_j x_i

extended as a graded derivation: beta(uv) = beta(u) v + (-1)^|u| u beta(v).
On a monomial x_S z^E (exterior factors in ascending order, then the
polynomial ones) this is one Leibniz pass with two closed-form rules:

  (a) the k-th exterior factor x_g of S (k from 0), for g = (i, j), gives
      -(-1)^k x_i x_j x_(S minus g) z^E; beta(x_g) has even degree, so moving
      it into place costs only the merge sign, and the term vanishes when
      x_i or x_j is already in S;
  (b) each z_g with g = (i, j) and exponent e > 0 gives
      (-1)^|S| e (x_S x_j z^(E - g + i) - x_S x_i z^(E - g + j)), a summand
      vanishing when its x is already in S.

Restriction to the universal subgroup kills every x_(i,j) and every product
x_i x_j, and renames z to s in printed output; the Bockstein descends since
it preserves that ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from random import Random
from typing import Iterator, Mapping

from .extalg import _merge_sign, _TermMap
from .fplin import Prime, as_prime
from .pgroups import BudgetExceeded

__all__ = [
    "Generators",
    "BigradedElement",
    "BocksteinReport",
    "PrimeTooSmall",
    "bockstein",
    "restrict_to_unp",
    "verify_differential",
]


# verify_differential holds every monomial it checks in one list.
SWEEP_BUDGET = 10**6


class PrimeTooSmall(ValueError):
    """The stated Bockstein formulas require p > 3."""


@dataclass(frozen=True)
class Generators:
    """Generator bookkeeping for n base indices, possibly in the restricted quotient."""

    n: int
    p: Prime
    restricted: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not isinstance(self.p, Prime):
            object.__setattr__(self, "p", as_prime(self.p))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return _pairs(self.n)

    @property
    def count(self) -> int:
        """Generators per block: n singles plus C(n, 2) pairs."""
        return self.n + len(self.pairs)

    def _zero_exps(self) -> tuple[int, ...]:
        return (0,) * self.count

    def _single(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return i - 1

    def _pair(self, i: int, j: int) -> int:
        try:
            return self.n + self.pairs.index((i, j))
        except ValueError:
            raise ValueError(f"({i}, {j}) is not a pair with 1 <= i < j <= {self.n}") from None

    def x(self, i: int) -> "BigradedElement":
        return BigradedElement(self, {(1 << self._single(i), self._zero_exps()): 1})

    def x_pair(self, i: int, j: int) -> "BigradedElement":
        if self.restricted:
            return self.zero()
        return BigradedElement(self, {(1 << self._pair(i, j), self._zero_exps()): 1})

    def zeta(self, i: int) -> "BigradedElement":
        e = list(self._zero_exps())
        e[self._single(i)] = 1
        return BigradedElement(self, {(0, tuple(e)): 1})

    def zeta_pair(self, i: int, j: int) -> "BigradedElement":
        e = list(self._zero_exps())
        e[self._pair(i, j)] = 1
        return BigradedElement(self, {(0, tuple(e)): 1})

    def one(self) -> "BigradedElement":
        return BigradedElement(self, {(0, self._zero_exps()): 1})

    def zero(self) -> "BigradedElement":
        return BigradedElement(self, {})

    def scalar(self, c: int) -> "BigradedElement":
        return BigradedElement(self, {(0, self._zero_exps()): c})


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i, j in combinations(range(1, n + 1), 2))


def _term_degree(mask: int, exps: tuple[int, ...]) -> int:
    return mask.bit_count() + 2 * sum(exps)


def _killed(amb: Generators, mask: int) -> bool:
    """Whether the restricted quotient kills an exterior mask."""
    singles = (1 << amb.n) - 1
    return bool(mask & ~singles) or (mask & singles).bit_count() >= 2


class BigradedElement(_TermMap):
    """A sum of terms (exterior mask, polynomial exponent vector) -> residue."""

    __slots__ = ()

    def __init__(self, ambient: Generators, terms: Mapping[tuple[int, tuple[int, ...]], int]):
        self.ambient = ambient
        p = ambient.p
        clean: dict[tuple[int, tuple[int, ...]], int] = {}
        for (mask, exps), c in terms.items():
            if mask >> ambient.count or len(exps) != ambient.count:
                raise ValueError("term does not fit the generator set")
            if ambient.restricted and _killed(ambient, mask):
                continue
            c %= p
            if c:
                clean[(mask, exps)] = c
        self._terms = clean

    @staticmethod
    def _key_degree(key: tuple[int, tuple[int, ...]]) -> int:
        return _term_degree(*key)

    def terms(self) -> Iterator[tuple[tuple[int, tuple[int, ...]], int]]:
        def key(t):
            mask, exps = t
            return (_term_degree(mask, exps), tuple(-e for e in exps), mask)

        for t in sorted(self._terms, key=key):
            yield t, self._terms[t]

    def __mul__(self, other):
        if isinstance(other, BigradedElement):
            self._require_same(other)
            return BigradedElement(self.ambient, _mul_term_dicts(self._terms, other._terms))
        return super().__mul__(other)

    def __str__(self) -> str:
        return format_bigraded(self)

    def __repr__(self) -> str:
        return f"<BigradedElement {format_bigraded(self)!r}>"


def format_bigraded(elem: BigradedElement) -> str:
    """Readable text with minimal-magnitude signed coefficients."""
    amb = elem.ambient
    p = amb.p
    pol_name = "s" if amb.restricted else "z"

    def gen_name(g: int, block: str) -> str:
        if g < amb.n:
            return f"{block}{g + 1}"
        i, j = amb.pairs[g - amb.n]
        return f"{block}({i},{j})"

    parts: list[str] = []
    for (mask, exps), c in elem.terms():
        factors = []
        for g, e in enumerate(exps):
            if e:
                name = gen_name(g, pol_name)
                factors.append(name if e == 1 else f"{name}^{e}")
        m = mask
        while m:
            low = m & -m
            factors.append(gen_name(low.bit_length() - 1, "x"))
            m ^= low
        signed = c if c <= p // 2 else c - p
        mag = abs(signed)
        body = " ".join(factors) if factors else "1"
        if factors and mag == 1:
            text = body
        else:
            text = f"{mag} {body}" if factors else str(mag)
        if not parts:
            parts.append(text if signed > 0 else f"-{text}")
        else:
            parts.append(("+ " if signed > 0 else "- ") + text)
    return " ".join(parts) if parts else "0"


def _mul_term_dicts(d1: dict, d2: dict) -> dict:
    out: dict = {}
    for (m1, e1), c1 in d1.items():
        for (m2, e2), c2 in d2.items():
            if m1 & m2:
                continue
            k = (m1 | m2, tuple(a + b for a, b in zip(e1, e2)))
            out[k] = out.get(k, 0) + c1 * c2 * _merge_sign(m1, m2)
    return out


def _add_beta_term(out: dict, amb: Generators, mask: int, exps: tuple[int, ...], c: int) -> None:
    """Add c * beta(x_S z^E) into out by rules (a) and (b) of the module docstring."""
    n, pairs = amb.n, amb.pairs
    rest, k = mask, 0
    while rest:
        low = rest & -rest
        g = low.bit_length() - 1
        if g >= n:
            i, j = pairs[g - n]
            xij, others = (1 << (i - 1)) | (1 << (j - 1)), mask ^ low
            if not xij & others:
                key = (xij | others, exps)
                out[key] = out.get(key, 0) + (c if k % 2 else -c) * _merge_sign(xij, others)
        rest ^= low
        k += 1
    c_s = -c if k % 2 else c  # (-1)^|S| c
    for g in range(n, amb.count):
        e = exps[g]
        if not e:
            continue
        i, j = pairs[g - n]
        for x, z, coeff in ((j, i, e), (i, j, -e)):
            xbit = 1 << (x - 1)
            if mask & xbit:
                continue
            raised = list(exps)
            raised[g] -= 1
            raised[z - 1] += 1
            key = (mask | xbit, tuple(raised))
            out[key] = out.get(key, 0) + coeff * c_s * _merge_sign(mask, xbit)


def bockstein(a: BigradedElement, p=None) -> BigradedElement:
    """Apply the Bockstein derivation; requires p > 3 per the stated formulas."""
    if p is not None and as_prime(p) != a.ambient.p:
        raise ValueError(f"element lives over p = {int(a.ambient.p)}, not {int(as_prime(p))}")
    if a.ambient.p <= 3:
        raise PrimeTooSmall("the primary Bockstein formulas hold for p > 3")
    out: dict = {}
    for (mask, exps), c in a._terms.items():
        _add_beta_term(out, a.ambient, mask, exps, c)
    return BigradedElement(a.ambient, out)


def restrict_to_unp(a: BigradedElement) -> BigradedElement:
    """Project to the restricted quotient: x_(i,j) -> 0 and x_i x_j -> 0.

    Polynomial generators survive (printed as s instead of z).  The Bockstein
    descends: restrict(beta(a)) = beta(restrict(a)).
    """
    amb = Generators(a.ambient.n, a.ambient.p, restricted=True)
    return BigradedElement(amb, a._terms)


@dataclass(frozen=True)
class BocksteinReport:
    n: int
    p: int
    max_degree: int
    monomials_checked: int
    beta_squared_violations: int
    leibniz_pairs: int
    leibniz_violations: int
    seed: int


def _monomials_up_to(amb: Generators, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """Monomials of degree <= d, by ascending exterior mask, then exponent vector."""
    out = []
    count = amb.count

    def exp_vectors(budget: int, length: int):
        if length == 0:
            yield ()
            return
        for first in range(budget + 1):
            for rest in exp_vectors(budget - first, length - 1):
                yield (first,) + rest

    masks = sorted(
        sum(1 << g for g in gens) for k in range(min(d, count) + 1) for gens in combinations(range(count), k)
    )
    for mask in masks:
        for exps in exp_vectors((d - mask.bit_count()) // 2, count):
            out.append((mask, exps))
    return out


def verify_differential(
    n: int, p, max_degree: int, *, leibniz_pairs: int = 100, seed: int = 0
) -> BocksteinReport:
    """Exhaustively check beta(beta(m)) = 0 on monomials of degree <= max_degree,
    plus the Leibniz rule on seeded random homogeneous pairs.

    Raises BudgetExceeded, before building any monomial, when there are more
    than SWEEP_BUDGET of them: sum over k of C(N, k) C((d - k) // 2 + N, N)
    with N = n + C(n, 2) generators in each block and d = max_degree.
    """
    p = as_prime(p)
    if p <= 3:
        raise PrimeTooSmall("the primary Bockstein formulas hold for p > 3")
    for name, value in (("max_degree", max_degree), ("leibniz_pairs", leibniz_pairs)):
        if value < 0:
            raise ValueError(f"{name} = {value} must be nonnegative")
    amb = Generators(n, p)
    count = amb.count
    total = sum(comb(count, k) * comb((max_degree - k) // 2 + count, count) for k in range(min(max_degree, count) + 1))
    if total > SWEEP_BUDGET:
        raise BudgetExceeded(f"{total} monomials of degree <= {max_degree} exceed the sweep budget {SWEEP_BUDGET}")
    monos = _monomials_up_to(amb, max_degree)
    bad_square = 0
    for mask, exps in monos:
        m = BigradedElement(amb, {(mask, exps): 1})
        if not bockstein(bockstein(m)).is_zero():
            bad_square += 1

    rng = Random(seed)
    by_degree: dict[int, list] = {}
    for mask, exps in monos:
        by_degree.setdefault(_term_degree(mask, exps), []).append((mask, exps))
    degrees = sorted(by_degree)
    bad_leibniz = 0
    for _ in range(leibniz_pairs):
        def random_homogeneous():
            d = rng.choice(degrees)
            pool = by_degree[d]
            picks = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
            return BigradedElement(amb, {t: rng.randrange(1, p) for t in picks}), d

        u, du = random_homogeneous()
        v, _ = random_homogeneous()
        lhs = bockstein(u * v)
        rhs = bockstein(u) * v + (u * bockstein(v) if du % 2 == 0 else -(u * bockstein(v)))
        if lhs != rhs:
            bad_leibniz += 1

    return BocksteinReport(
        n=n,
        p=int(p),
        max_degree=max_degree,
        monomials_checked=len(monos),
        beta_squared_violations=bad_square,
        leibniz_pairs=leibniz_pairs,
        leibniz_violations=bad_leibniz,
        seed=seed,
    )
