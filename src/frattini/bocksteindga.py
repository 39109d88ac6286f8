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

The rules split beta(x_S z^E) = beta(x_S) z^E + (-1)^|S| x_S beta(z^E), and
rule (b)'s summands depend on z^E alone.  So the kernel builds them once per
distinct polynomial part, in a table owned by one call: bockstein() makes
one per call and verify_differential one per sweep, read at both beta
levels.  It holds at most one entry per polynomial part with a z_(i,j),
each of at most 2 floor(d / 2) summands at degree d, so it never outgrows
the monomials being checked.  Both rules take their signs from bit counts
of the mask, with no merge-sign loop.

Restriction to the universal subgroup kills every x_(i,j) and every product
x_i x_j, and renames z to s in printed output; the Bockstein descends since
it preserves that ideal.

Both blocks number their N = n + C(n, 2) generators alike: z_k (or x_k) is
k - 1 and z_(i,j) is n plus the place of (i, j) among the pairs in
lexicographic order.  A term's key is (mask, mono): bit g of mask is x_g,
and mono is the sorted tuple of the indices in z^E, one entry per power, so
z_1^2 z_(1,2) at n = 2 is (0, 0, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb, isqrt
from random import Random
from typing import Iterator, Mapping

from .extalg import _merge_sign, _TermMap
from .fplin import BudgetExceeded, InvalidInput, Prime, as_prime

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


class PrimeTooSmall(InvalidInput):
    """The stated Bockstein formulas require p > 3."""


@dataclass(frozen=True)
class Generators:
    """Generator bookkeeping for n base indices, possibly in the restricted quotient."""

    n: int
    p: Prime
    restricted: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("n must be at least 1")
        if not isinstance(self.p, Prime):
            object.__setattr__(self, "p", as_prime(self.p))

    # Read on every term of every kernel call, so each is built once per
    # instance; the dataclass __eq__ and __hash__ still see the fields only.
    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(combinations(range(1, self.n + 1), 2))

    @cached_property
    def count(self) -> int:
        """Generators per block: n singles plus C(n, 2) pairs."""
        return self.n + comb(self.n, 2)

    def _single(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise InvalidInput(f"index {i} out of range 1..{self.n}")
        return i - 1

    def _pair(self, i: int, j: int) -> int:
        if not 1 <= i < j <= self.n:
            raise InvalidInput(f"({i}, {j}) is not a pair with 1 <= i < j <= {self.n}")
        return self.n + (i - 1) * (2 * self.n - i) // 2 + j - i - 1

    def _pair_of(self, g: int) -> tuple[int, int]:
        """The pair (i, j) with ``_pair(i, j) == g``, without building ``pairs``.

        Counted from the last pair, r = C(n, 2) - 1 - (g - n) falls in the
        t-th row from the end (i = n - t, t pairs) for t = (1 + isqrt(8r + 1)) // 2,
        at the (r - C(t, 2))-th pair from that row's end.
        """
        r = comb(self.n, 2) - 1 - (g - self.n)
        t = (1 + isqrt(8 * r + 1)) // 2
        return self.n - t, self.n - (r - comb(t, 2))

    def x(self, i: int) -> "BigradedElement":
        return BigradedElement(self, {(1 << self._single(i), ()): 1})

    def x_pair(self, i: int, j: int) -> "BigradedElement":
        if self.restricted:
            return self.zero()
        return BigradedElement(self, {(1 << self._pair(i, j), ()): 1})

    def zeta(self, i: int) -> "BigradedElement":
        return BigradedElement(self, {(0, (self._single(i),)): 1})

    def zeta_pair(self, i: int, j: int) -> "BigradedElement":
        return BigradedElement(self, {(0, (self._pair(i, j),)): 1})

    def one(self) -> "BigradedElement":
        return BigradedElement(self, {(0, ()): 1})

    def zero(self) -> "BigradedElement":
        return BigradedElement(self, {})

    def scalar(self, c: int) -> "BigradedElement":
        return BigradedElement(self, {(0, ()): c})


def _term_degree(mask: int, mono: tuple[int, ...]) -> int:
    return mask.bit_count() + 2 * len(mono)


def _killed(amb: Generators, mask: int) -> bool:
    """Whether the restricted quotient kills an exterior mask."""
    singles = (1 << amb.n) - 1
    return bool(mask & ~singles) or (mask & singles).bit_count() >= 2


class BigradedElement(_TermMap):
    """A sum of terms (mask, mono) -> residue: the key of the module docstring,
    with mask < 2^N and mono a sorted tuple of indices in range(N)."""

    __slots__ = ()

    def __init__(self, ambient: Generators, terms: Mapping[tuple[int, tuple[int, ...]], int]):
        self.ambient = ambient
        p, count = ambient.p, ambient.count
        clean: dict[tuple[int, tuple[int, ...]], int] = {}
        for (mask, mono), c in terms.items():
            if mask >> count or mono != tuple(sorted(mono)) or (mono and not 0 <= mono[0] <= mono[-1] < count):
                raise ValueError("term does not fit the generator set")
            if ambient.restricted and _killed(ambient, mask):
                continue
            c %= p
            if c:
                clean[(mask, mono)] = c
        self._terms = clean

    @staticmethod
    def _key_degree(key: tuple[int, tuple[int, ...]]) -> int:
        return _term_degree(*key)

    def terms(self) -> Iterator[tuple[tuple[int, tuple[int, ...]], int]]:
        """By degree, then descending exponent vector, then mask.  On sorted
        index tuples the exponent order is ascending mono + (N,): the first
        differing index is smaller in the tuple with the larger exponent there."""
        end = (self.ambient.count,)
        for t in sorted(self._terms, key=lambda t: (_term_degree(*t), t[1] + end, t[0])):
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
        i, j = amb._pair_of(g)
        return f"{block}({i},{j})"

    parts: list[str] = []
    for (mask, mono), c in elem.terms():
        factors = []
        for g in dict.fromkeys(mono):
            name, e = gen_name(g, pol_name), mono.count(g)
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
            k = (m1 | m2, tuple(sorted(e1 + e2)))
            out[k] = out.get(k, 0) + c1 * c2 * _merge_sign(m1, m2)
    return out


def _rule_b(amb: Generators, mono: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Rule (b)'s summands of z^E as (x bit, lowered mono, +-e):
    two per distinct z_(i,j) of mono, the only input they depend on."""
    n, pairs = amb.n, amb.pairs
    out = []
    for g in dict.fromkeys(mono):
        if g < n:
            continue
        e = mono.count(g)
        i, j = pairs[g - n]
        at = mono.index(g)
        lowered = mono[:at] + mono[at + 1:]
        for x, z, coeff in ((j, i, e), (i, j, -e)):
            xbit = 1 << (x - 1)
            out.append((xbit, tuple(sorted(lowered + (z - 1,))), coeff))
    return tuple(out)


def _add_beta_term(out: dict, amb: Generators, mask: int, mono: tuple[int, ...], c: int, rules: dict) -> None:
    """Add c * beta(x_S z^E) into out by rules (a) and (b) of the module docstring.

    Rule (a) walks only the pair bits of mask.  Its x_g term's sign is
    -(-1)^k times the merge sign of x_i x_j into the other factors, whose
    parity is the count of factors strictly between x_i and x_j: one bit
    count over (bits below x_g) xor (bits from x_i to just below x_j).
    Rule (b) reads z^E's summands from ``rules``, the caller's table, where
    ``_rule_b`` puts them on the first call with that mono: one entry per
    distinct mono with a z_(i,j), at most 2 len(mono) summands each.  Moving
    x into x_S passes the factors above it, so with (-1)^|S| a summand's sign
    is (-1)^(factors below x).
    """
    n, pairs = amb.n, amb.pairs
    rest = mask >> n
    while rest:
        low = rest & -rest
        rest ^= low
        i, j = pairs[low.bit_length() - 1]
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        if not mask & (bi | bj):
            bit = low << n
            key = ((mask ^ bit) | bi | bj, mono)
            out[key] = out.get(key, 0) + (c if (mask & ((bit - 1) ^ (bj - bi))).bit_count() % 2 else -c)
    if not mono or mono[-1] < n:  # no z_(i,j) factor
        return
    rule = rules.get(mono)
    if rule is None:
        rule = rules[mono] = _rule_b(amb, mono)
    for xbit, lowered, coeff in rule:
        if not mask & xbit:
            key = (mask | xbit, lowered)
            out[key] = out.get(key, 0) + (-coeff * c if (mask & (xbit - 1)).bit_count() % 2 else coeff * c)


def bockstein(a: BigradedElement) -> BigradedElement:
    """Apply the Bockstein derivation; requires p > 3 per the stated formulas."""
    if a.ambient.p <= 3:
        raise PrimeTooSmall("the primary Bockstein formulas hold for p > 3")
    out: dict = {}
    rules: dict = {}
    for (mask, mono), c in a._terms.items():
        _add_beta_term(out, a.ambient, mask, mono, c, rules)
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
    """Monomials of degree <= d by ascending exterior mask, then ascending
    exponent vector: the reverse of the mono + (N,) order of terms()."""
    count = amb.count
    masks = sorted(
        sum(1 << g for g in gens) for k in range(min(d, count) + 1) for gens in combinations(range(count), k)
    )
    by_budget: dict[int, list[tuple[int, ...]]] = {}
    out = []
    for mask in masks:
        budget = (d - mask.bit_count()) // 2
        if budget not in by_budget:
            monos = [m for k in range(budget + 1) for m in combinations_with_replacement(range(count), k)]
            by_budget[budget] = sorted(monos, key=lambda m: m + (count,), reverse=True)
        out.extend((mask, mono) for mono in by_budget[budget])
    return out


def verify_differential(
    n: int, p, max_degree: int, *, leibniz_pairs: int = 100, seed: int = 0
) -> BocksteinReport:
    """Exhaustively check beta(beta(m)) = 0 on monomials of degree <= max_degree,
    plus the Leibniz rule on seeded random homogeneous pairs.

    beta^2 is checked on raw term dicts: _add_beta_term gives beta(m), each of
    its terms nonzero mod p goes through _add_beta_term again, and m counts
    as a violation when any coefficient of the result is nonzero mod p.  Both
    levels share one rule table, so each polynomial part's rule (b) is built
    once per sweep.

    Raises InvalidInput for a negative max_degree, leibniz_pairs or seed, and
    BudgetExceeded, before building any monomial, when there are more
    than SWEEP_BUDGET of them: sum over k of C(N, k) C((d - k) // 2 + N, N)
    with N = n + C(n, 2) generators in each block and d = max_degree.
    """
    p = as_prime(p)
    if p <= 3:
        raise PrimeTooSmall("the primary Bockstein formulas hold for p > 3")
    for name, value in (("max_degree", max_degree), ("leibniz_pairs", leibniz_pairs)):
        if value < 0:
            raise InvalidInput(f"{name} = {value} must be nonnegative")
    if seed < 0:  # Random(-s) draws the same pairs as Random(s)
        raise InvalidInput(f"seed = {seed}: the seed must be non-negative")
    amb = Generators(n, p)
    count = amb.count
    total = sum(comb(count, k) * comb((max_degree - k) // 2 + count, count) for k in range(min(max_degree, count) + 1))
    if total > SWEEP_BUDGET:
        raise BudgetExceeded(f"{total} monomials of degree <= {max_degree} exceed the sweep budget {SWEEP_BUDGET}")
    monos = _monomials_up_to(amb, max_degree)
    bad_square = 0
    rules: dict = {}
    for mask, mono in monos:
        once: dict = {}
        _add_beta_term(once, amb, mask, mono, 1, rules)
        twice: dict = {}
        for (m, e), c in once.items():
            if c % p:
                _add_beta_term(twice, amb, m, e, c, rules)
        if any(c % p for c in twice.values()):
            bad_square += 1

    rng = Random(seed)
    by_degree: dict[int, list] = {}
    for mask, mono in monos if leibniz_pairs else ():  # only the pairs draw from it
        by_degree.setdefault(_term_degree(mask, mono), []).append((mask, mono))
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
