"""Arithmetic in the exterior algebra Lambda(e_1..e_w) tensor Lambda(x_1..x_r) over F_p.

A monomial e_S x_T is stored as two index bitmasks (bit i-1 for index i),
so the ambient is capped at w + r <= 62 generator bits.  Signs come from
counting inversions between bitmasks; the generator order is
e_1 < ... < e_w < x_1 < ... < x_r.

The deterministic basis order used everywhere downstream sorts monomials by
degree, then by the x-mask as an integer, then by the e-mask as an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Mapping

from .fplin import Prime, as_prime

__all__ = [
    "Ambient",
    "Monomial",
    "ExtElement",
    "QuadraticForm",
    "AmbientMismatch",
    "ParseError",
    "IndexOutOfRange",
    "wedge",
    "basis",
    "parse",
]

MAX_GENERATOR_BITS = 62


class AmbientMismatch(ValueError):
    """Operands live over different ambients."""


class ParseError(ValueError):
    """Element text violates the grammar; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IndexOutOfRange(ValueError):
    """A generator index falls outside the ambient's e or x range."""


@dataclass(frozen=True)
class Ambient:
    """Generator counts and coefficient prime: (w e-variables, r x-variables, p)."""

    w: int
    r: int
    p: Prime

    def __post_init__(self):
        if self.w < 0 or self.r < 0:
            raise ValueError("generator counts must be nonnegative")
        if self.w + self.r > MAX_GENERATOR_BITS:
            raise ValueError(
                f"w + r = {self.w + self.r} exceeds the {MAX_GENERATOR_BITS}-bit monomial encoding"
            )
        if not isinstance(self.p, Prime):
            object.__setattr__(self, "p", as_prime(self.p))

    def e(self, i: int) -> "ExtElement":
        """The generator e_i as an element."""
        if not 1 <= i <= self.w:
            raise IndexOutOfRange(f"e{i} out of range 1..{self.w}")
        return ExtElement(self, {(1 << (i - 1), 0): 1})

    def x(self, i: int) -> "ExtElement":
        """The generator x_i as an element."""
        if not 1 <= i <= self.r:
            raise IndexOutOfRange(f"x{i} out of range 1..{self.r}")
        return ExtElement(self, {(0, 1 << (i - 1)): 1})

    def one(self) -> "ExtElement":
        return ExtElement(self, {(0, 0): 1})

    def zero(self) -> "ExtElement":
        return ExtElement(self, {})

    def scalar(self, c: int) -> "ExtElement":
        return ExtElement(self, {(0, 0): c})


def _bits_to_indices(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


@dataclass(frozen=True)
class Monomial:
    """A product e_S x_T with strictly increasing index sets."""

    e_set: tuple[int, ...]
    x_set: tuple[int, ...]

    def __post_init__(self):
        for s in (self.e_set, self.x_set):
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)) or (s and s[0] < 1):
                raise ValueError(f"index set {s} is not strictly increasing and positive")

    @classmethod
    def from_bits(cls, e_bits: int, x_bits: int) -> "Monomial":
        return cls(_bits_to_indices(e_bits), _bits_to_indices(x_bits))

    @property
    def e_bits(self) -> int:
        return sum(1 << (i - 1) for i in self.e_set)

    @property
    def x_bits(self) -> int:
        return sum(1 << (i - 1) for i in self.x_set)

    @property
    def degree(self) -> int:
        return len(self.e_set) + len(self.x_set)

    def __str__(self) -> str:
        return _monomial_text(self.e_bits, self.x_bits)


@lru_cache(maxsize=1 << 14)
def _monomial_text(e_bits: int, x_bits: int) -> str:
    """Text of e_S x_T from its bitmasks, such as "e1^e3^x2"; "1" when both are empty."""
    factors = [f"e{i}" for i in _bits_to_indices(e_bits)] + [f"x{i}" for i in _bits_to_indices(x_bits)]
    return "^".join(factors) if factors else "1"


def _merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint combined masks.

    It is the parity of the pairs i in a, j in b with i > j, counted over
    whichever mask has fewer set bits.
    """
    n = 0
    if a.bit_count() <= b.bit_count():
        while a:
            low = a & -a
            n += (b & (low - 1)).bit_count()
            a ^= low
    else:
        while b:
            low = b & -b
            n += (a >> low.bit_length()).bit_count()
            b ^= low
    return -1 if n & 1 else 1


class _TermMap:
    """Sparse map from bitmask keys to nonzero residues mod p: the arithmetic
    shared by ``ExtElement`` and ``bocksteindga.BigradedElement``.

    A direct subclass is a public element type.  Its constructor reduces and
    validates the terms; it supplies ``_key_degree`` and the product of two
    elements.  Operands must be instances of that public type, and results are
    built as it, so arithmetic on a ``QuadraticForm`` returns an ``ExtElement``.
    """

    __slots__ = ("ambient", "_terms")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if _TermMap in cls.__bases__:
            cls._element_type = cls

    def _new(self, terms):
        return self._element_type(self.ambient, terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int | None:
        """Common degree of all terms, or None if mixed or zero."""
        degs = {self._key_degree(k) for k in self._terms}
        return degs.pop() if len(degs) == 1 else None

    def _require_same(self, other) -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} != {other.ambient}")

    def __add__(self, other):
        if not isinstance(other, self._element_type):
            return NotImplemented
        self._require_same(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return self._new(out)

    def __sub__(self, other):
        if not isinstance(other, self._element_type):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new({k: c * other for k, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, self._element_type):
            return NotImplemented
        return self.ambient == other.ambient and self._terms == other._terms

    def __hash__(self):
        return hash((self.ambient, frozenset(self._terms.items())))


class ExtElement(_TermMap):
    """A sum of monomials with coefficients in [1, p-1]; zero coefficients dropped.

    Immutable by convention: arithmetic returns new elements.  Terms are keyed
    internally by (e_bits, x_bits).
    """

    __slots__ = ()

    def __init__(self, ambient: Ambient, terms: Mapping[tuple[int, int], int]):
        self.ambient = ambient
        p = ambient.p
        emax = (1 << ambient.w) - 1
        xmax = (1 << ambient.r) - 1
        clean: dict[tuple[int, int], int] = {}
        for (eb, xb), c in terms.items():
            if eb & ~emax or xb & ~xmax:
                raise IndexOutOfRange(
                    f"monomial {Monomial.from_bits(eb, xb)} does not fit ambient (w={ambient.w}, r={ambient.r})"
                )
            c %= p
            if c:
                clean[(eb, xb)] = c
        self._terms = clean

    @staticmethod
    def _key_degree(key: tuple[int, int]) -> int:
        return key[0].bit_count() + key[1].bit_count()

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in the canonical order (degree, x-mask, e-mask)."""
        for eb, xb in sorted(self._terms, key=_term_key):
            yield Monomial.from_bits(eb, xb), self._terms[(eb, xb)]

    def coefficient(self, monomial: Monomial) -> int:
        return self._terms.get((monomial.e_bits, monomial.x_bits), 0)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {self._key_degree(k) for k in self._terms}
        if d is None:
            return len(degs) <= 1
        return degs <= {d}

    def __mul__(self, other):
        if isinstance(other, ExtElement):
            return wedge(self, other)
        return super().__mul__(other)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<ExtElement {format_element(self)!r} over {self.ambient}>"


def _term_key(key: tuple[int, int]) -> tuple[int, int, int]:
    eb, xb = key
    return (eb.bit_count() + xb.bit_count(), xb, eb)


def wedge(a: ExtElement, b: ExtElement) -> ExtElement:
    """Exterior product; raises AmbientMismatch across different ambients."""
    a._require_same(b)
    w = a.ambient.w
    out: dict[tuple[int, int], int] = {}
    for (ea, xa), ca in a._terms.items():
        comb_a = ea | (xa << w)
        for (eb, xb), cb in b._terms.items():
            if (ea & eb) or (xa & xb):
                continue
            comb_b = eb | (xb << w)
            c = ca * cb * _merge_sign(comb_a, comb_b)
            k = (ea | eb, xa | xb)
            out[k] = out.get(k, 0) + c
    return ExtElement(a.ambient, out)


class QuadraticForm(ExtElement):
    """An element supported on e-monomials of degree exactly 2 (possibly zero)."""

    def __init__(self, ambient: Ambient, terms: Mapping[tuple[int, int], int]):
        super().__init__(ambient, terms)
        for eb, xb in self._terms:
            if xb or eb.bit_count() != 2:
                raise ValueError(
                    f"term {Monomial.from_bits(eb, xb)} is not quadratic in the e-variables"
                )

    @classmethod
    def from_element(cls, elem: ExtElement) -> "QuadraticForm":
        return cls(elem.ambient, elem._terms)


@lru_cache(maxsize=512)
def _basis_bits(w: int, r: int, d: int) -> tuple[tuple[int, int], ...]:
    out = []
    for k in range(max(0, d - w), min(r, d) + 1):
        for xs in combinations(range(r), k):
            xb = sum(1 << i for i in xs)
            for es in combinations(range(w), d - k):
                out.append((sum(1 << i for i in es), xb))
    out.sort(key=lambda t: (t[1], t[0]))
    return tuple(out)


def basis(d: int, ambient: Ambient) -> list[Monomial]:
    """All degree-d monomials in the canonical order; empty beyond top degree."""
    if d < 0 or d > ambient.w + ambient.r:
        return []
    return [Monomial.from_bits(eb, xb) for eb, xb in _basis_bits(ambient.w, ambient.r, d)]


# -- text form ---------------------------------------------------------------
#
# element := term (('+'|'-') term)*
# term    := [coeff] factor ('^' factor)*
# factor  := 'e'INT | 'x'INT
#
# Whitespace is insignificant; coefficients are reduced mod p.  Beyond the
# grammar the parser also accepts a bare integer term (constants such as the
# unit "1" or the zero element "0") and an optional sign on the first term,
# both of which the formatter can produce.

def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-^":
            toks.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
        elif ch in "ex":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable {ch!r} needs an index", i)
            toks.append(("var", (ch, int(text[i + 1:j])), i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


def parse(text: str, ambient: Ambient) -> ExtElement:
    """Parse the element grammar into an ExtElement over ``ambient``.

    Raises ParseError (with position) on malformed text and IndexOutOfRange
    when a generator index does not fit the ambient.
    """
    toks = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, object, int]:
        return toks[pos]

    def take() -> tuple[str, object, int]:
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def factor_elem(kind: str, idx: int) -> ExtElement:
        return ambient.e(idx) if kind == "e" else ambient.x(idx)

    def term() -> ExtElement:
        coeff = None
        if peek()[0] == "int":
            coeff = int(take()[1])
        factors: list[ExtElement] = []
        if peek()[0] == "var":
            kind, idx = take()[1]
            factors.append(factor_elem(kind, idx))
            while peek()[0] == "^":
                take()
                t, v, at = take()
                if t != "var":
                    raise ParseError("expected a factor after '^'", at)
                factors.append(factor_elem(*v))
        if coeff is None and not factors:
            t, _, at = peek()
            raise ParseError(f"expected a term, found {t!r}", at)
        out = ambient.scalar(coeff if coeff is not None else 1)
        for f in factors:
            out = out * f
        return out

    first = True
    total = ambient.zero()
    while True:
        sign = 1
        t, _, at = peek()
        if t in "+-":
            take()
            sign = -1 if t == "-" else 1
        elif not first:
            raise ParseError(f"expected '+' or '-', found {t!r}", at)
        total = total + sign * term()
        first = False
        if peek()[0] == "end":
            return total


def format_element(elem: ExtElement) -> str:
    """Canonical text: terms in basis order, coefficients in [1, p-1]."""
    parts = []
    for key in sorted(elem._terms, key=_term_key):
        c = elem._terms[key]
        if key == (0, 0):
            parts.append(str(c))
        else:
            mono = _monomial_text(*key)
            parts.append(mono if c == 1 else f"{c} {mono}")
    return " + ".join(parts) if parts else "0"
