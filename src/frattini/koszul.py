"""Koszul complexes attached to k-invariant subspaces, their homology, and cup products.

The complex is Lambda(e_1..e_w) tensor Lambda(x_1..x_r) with the derivation
determined by d(e_i) = 0 and d(x_i) = q_i for chosen quadratics q_i in the
e-variables.  On a monomial with T = {t_1 < ... < t_k}:

    d(e_S x_T) = sum_j (-1)^(|S| + j - 1) q_(t_j) ^ e_S x_(T \\ t_j)

Homology in each degree is ker d / im d, computed by exact F_p elimination;
representatives are canonical, so repeated runs agree byte for byte.

There is one implementation of d, ``_diff_triplets``: it takes many keys as
arrays and returns every term of their differentials at once, as (column,
target e-mask, target x-mask, value), its signs from bit counts.  Matrices,
blocks and ``differential`` are all scattered from it.

d preserves a grading of the basis, so each degree's matrix is block-diagonal:
the internal weight |S| + 2|T| of e_S x_T always, and the finer Z^w
multidegree (e_i -> eps_i, x_t -> eps_a + eps_b) when every quadratic q_t is a
single monomial c e_a e_b, as for ``unp_complex``.  A grade is one integer:
the multidegree is coded with digit i in base r + 2, which no sum of keys
carries.  Betti numbers, the
representatives and the reduction of cocycles to classes all work one grade
block at a time; no full-degree matrix is built.  The RREF of a block-diagonal
matrix is the union of the block RREFs, so this gives the same bytes as the
full matrices would.  Each block is eliminated twice: the RREF of its outgoing
matrix gives its cycles and, at its pivot columns, independent boundaries of
the next degree; the RREF of those is kept, as the canonical representative of
a cocycle's class is its normal form modulo the boundaries (zero on that
RREF's pivots), which cup products compute with one reduction per block.

When the quadratics are single monomials c_t e_a e_b covering every pair
{a, b} exactly once (``unp_complex``, up to reordering and rescaling), S_w acts
on the complex by chain automorphisms, so blocks of permuted multidegrees have
equal rank.  Ranks-only Betti numbers then rank one block per orbit, the one
of non-increasing multidegree, and weight it by the orbit size.  Its keys are
gathered by code: for every e-mask S and every such multidegree mu at once,
the x-masks whose code is code(mu) - code(S), by binary search in the sorted
x-mask codes.  Of each pair of those blocks made dual by the top-class
pairing, which d never reaches, only one is ranked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np

from . import fplin
from .extalg import Ambient, AmbientMismatch, ExtElement, QuadraticForm, _basis_bits
from .fplin import FpMatrix, InvalidInput, Prime, as_prime

__all__ = [
    "KInvariantSubspace",
    "KoszulComplex",
    "BettiTable",
    "CohomologyClass",
    "BocksteinNotContained",
    "DegenerateSubspace",
    "DependentQuadratics",
    "NotACocycle",
    "canonicalize",
    "differential",
    "differential_matrix",
    "betti",
    "cup",
    "unp_complex",
]

HARD_SIZE_LIMIT = 22  # w + r: C(22, 11) keys in one degree; multidegree codes below (r + 2)^w <= 2^48


class BocksteinNotContained(ValueError):
    """The subspace does not project onto all w Bockstein coordinates."""

    def __init__(self, corank: int):
        super().__init__(f"Bockstein projection has corank {corank}")
        self.corank = corank


class DegenerateSubspace(InvalidInput):
    """The given basis vectors are linearly dependent."""


class DependentQuadratics(InvalidInput):
    """The quadratics are linearly dependent (pass force=True to proceed)."""


class NotACocycle(ValueError):
    """The element is not annihilated by the differential."""


@dataclass(frozen=True)
class KInvariantSubspace:
    """A subspace of the degree-2 cohomology of (Z/p)^w, given by a basis.

    Each basis entry pairs a length-w coefficient vector over the Bockstein
    block with a quadratic form in the e-variables.  Nothing beyond shapes is
    checked here; rank conditions belong to ``canonicalize``.
    """

    w: int
    p: Prime
    basis: tuple[tuple[tuple[int, ...], ExtElement], ...]

    def __post_init__(self):
        if not isinstance(self.p, Prime):
            object.__setattr__(self, "p", as_prime(self.p))
        norm = []
        for bvec, quad in self.basis:
            bvec = tuple(int(c) % self.p for c in bvec)
            if len(bvec) != self.w:
                raise InvalidInput(f"Bockstein part has length {len(bvec)}, expected {self.w}")
            if quad.ambient.w != self.w or quad.ambient.p != self.p:
                raise AmbientMismatch("quadratic part lives over the wrong ambient")
            QuadraticForm.from_element(quad)
            norm.append((bvec, quad))
        object.__setattr__(self, "basis", tuple(norm))

    @property
    def v(self) -> int:
        return len(self.basis)


class KoszulComplex:
    """Lambda(e_1..e_w) tensor Lambda(x_1..x_r) with d(x_i) = q_i.

    Quadratics are rejected when linearly dependent unless force=True, in
    which case homology is still computed but the usual degree-1 dimension
    guarantee is off.  w + r <= HARD_SIZE_LIMIT bounds the keys of one degree
    (C(22, 11) = 705,432 tuples from ``_basis_bits``), which the dense-block
    guard ``fplin.check_block`` in ``betti`` does not.  It also keeps every
    multidegree code below (r + 2)^w <= 8^16 = 2^48 (the maximum, at w = 16
    and r = 6), as each of its w digits is at most r + 1 (``_bit_codes``), so
    the codes and their differences are exact in int64.
    """

    __slots__ = ("w", "r", "p", "quadratics", "quadratics_independent", "ambient", "_d_terms")

    def __init__(self, w: int, p, quadratics, *, force: bool = False):
        self.p = as_prime(p)
        self.w = int(w)
        quads = tuple(quadratics)
        self.r = len(quads)
        if self.w < 0:
            raise InvalidInput("w must be nonnegative")
        if self.w + self.r > HARD_SIZE_LIMIT:
            raise InvalidInput(f"w + r = {self.w + self.r} exceeds the hard limit {HARD_SIZE_LIMIT}")
        self.ambient = Ambient(self.w, self.r, self.p)
        self.quadratics = tuple(self._embed(q) for q in quads)
        self._d_terms = _quadratic_terms(self.quadratics)
        self.quadratics_independent = self._independent()
        if not self.quadratics_independent:
            if not force:
                raise DependentQuadratics(
                    "quadratics are linearly dependent; pass force=True to compute anyway"
                )
            warnings.warn(
                "dependent quadratics: computing homology without the b_1 = w guarantee",
                RuntimeWarning,
                stacklevel=2,
            )

    def _embed(self, q: ExtElement) -> ExtElement:
        if q.ambient.w != self.w or q.ambient.p != self.p:
            raise AmbientMismatch(
                f"quadratic over (w={q.ambient.w}, p={int(q.ambient.p)}) does not match (w={self.w}, p={int(self.p)})"
            )
        return QuadraticForm(self.ambient, q._terms)

    def _independent(self) -> bool:
        if self.r == 0:
            return True
        pairs = _basis_bits(self.w, 0, 2)
        col = {eb: i for i, (eb, _) in enumerate(pairs)}
        m = np.zeros((self.r, len(pairs)), dtype=np.int64)
        for i, q in enumerate(self.quadratics):
            for (eb, _), c in q._terms.items():
                m[i, col[eb]] = c
        return fplin.rank(FpMatrix(m, self.p)) == self.r

    @property
    def top_degree(self) -> int:
        return self.w + self.r

    @property
    def hypothesis_met(self) -> bool:
        """Whether p clears the collapse bound p > r + 1."""
        return self.p > self.r + 1

    def __repr__(self) -> str:
        return f"KoszulComplex(w={self.w}, r={self.r}, p={int(self.p)})"


def canonicalize(k: KInvariantSubspace) -> KoszulComplex:
    """Row-reduce a k-invariant basis into the canonical complex.

    Succeeds exactly when the projection onto the Bockstein block is
    surjective; the reduced basis is then b_1 + ..., ..., b_w + ...,
    q_1, ..., q_(v-w) with the trailing quadratics carrying no Bockstein
    part.  Raises DegenerateSubspace on a dependent input basis and
    BocksteinNotContained (with the corank) when the projection is not onto.
    """
    w, v, p = k.w, k.v, k.p
    pairs = _basis_bits(w, 0, 2)
    col = {eb: w + i for i, (eb, _) in enumerate(pairs)}
    m = np.zeros((v, w + len(pairs)), dtype=np.int64)
    for i, (bvec, quad) in enumerate(k.basis):
        m[i, :w] = bvec
        for (eb, _), c in quad._terms.items():
            m[i, col[eb]] = c
    red, piv = fplin.rref(FpMatrix(m, p))
    if len(piv) < v:
        raise DegenerateSubspace(f"basis has rank {len(piv)} < {v}")
    b_rank = sum(1 for c in piv if c < w)
    if b_rank < w:
        raise BocksteinNotContained(w - b_rank)

    # Pivots now sit in all w Bockstein columns, so rows w..v-1 have zero
    # Bockstein part and give the quadratics.
    amb0 = Ambient(w, 0, p)
    quads = []
    for i in range(w, v):
        terms = {(eb, 0): int(red.entries[i, w + j]) for j, (eb, _) in enumerate(pairs)}
        quads.append(QuadraticForm(amb0, terms))
    return KoszulComplex(w, p, quads)


_PAIR_CHUNK = 1 << 16  # (key, quadratic term) pairs that ``_diff_triplets`` tests at once


def _quadratic_terms(quadratics) -> tuple[np.ndarray, ...]:
    """Every term c e_a e_b of every q_t as four int64 arrays: t, the mask of
    e_a e_b, c, and a mask holding the e's strictly between a and b (plus e_a,
    which no key that meets the term contains)."""
    rows = [(t, qe, qc, qe - 2 * (qe & -qe)) for t, q in enumerate(quadratics) for (qe, _), qc in q._terms.items()]
    return tuple(np.array(col, dtype=np.int64) for col in (zip(*rows) if rows else ((),) * 4))


def _diff_triplets(c: KoszulComplex, eb: np.ndarray, xb: np.ndarray):
    """d of the keys (eb[j], xb[j]) at once, as arrays (j, target e, target x, value).

    One triplet per key e_S x_T, x_t in T and term c e_a e_b of q_t with
    {a, b} disjoint from S; j is ascending.  The value is +-c, not reduced:
    the sign of moving q_t to the front, (-1)^(|S| + |T below t|), times that
    of sorting e_a e_b into e_S, (-1)^|S between a and b|, taken as the parity
    of one bit count.  No two triplets of one key share a target.  Pairs are
    broadcast ``_PAIR_CHUNK`` at a time.
    """
    t, qe, qc, mid = c._d_terms
    step = max(1, _PAIR_CHUNK // max(1, t.size))
    out = []
    for lo in range(0, max(eb.size, 1), step):
        e, x = eb[lo:lo + step], xb[lo:lo + step]
        j, k = np.nonzero((x[:, None] >> t & 1).astype(bool) & (e[:, None] & qe == 0))
        e, x, tk = e[j], x[j], t[k]
        low = 1 << tk
        odd = np.bitwise_count((x & (low - 1)) << c.w | e & ~mid[k]) & 1
        out.append((j + lo, e | qe[k], x ^ low, np.where(odd, -qc[k], qc[k])))
    return out[0] if len(out) == 1 else tuple(map(np.concatenate, zip(*out)))


def _key_arrays(keys) -> tuple[np.ndarray, np.ndarray]:
    """The e-masks and x-masks of a sequence of keys (e_bits, x_bits)."""
    a = np.array(keys, dtype=np.int64).reshape(-1, 2)
    return a[:, 0], a[:, 1]


def _find(ids: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The index in the distinct ``ids`` of each of ``targets``, all of which it holds."""
    order = np.argsort(ids)
    return order[np.searchsorted(ids[order], targets)]


def differential(c: KoszulComplex, elem: ExtElement) -> ExtElement:
    """Apply the derivation d; raises total degree by one on each term."""
    if elem.ambient != c.ambient:
        raise AmbientMismatch(f"{elem.ambient} != {c.ambient}")
    j, e, x, v = _diff_triplets(c, *_key_arrays(list(elem._terms)))
    if not j.size:
        return c.ambient.zero()
    coeff = np.fromiter(elem._terms.values(), dtype=np.int64, count=len(elem._terms))
    v = v * coeff[j] % c.p  # each product of two residues is below 2**62: reduced before any sum
    ids = x << c.w | e
    order = np.argsort(ids, kind="stable")
    ids, v = ids[order], v[order]
    first = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    sums = np.add.reduceat(v, first) % c.p
    nz = np.flatnonzero(sums)
    ids = ids[first[nz]]
    keys = zip((ids & ((1 << c.w) - 1)).tolist(), (ids >> c.w).tolist())
    return ExtElement._from_residues(c.ambient, dict(zip(keys, sums[nz].tolist())))


def _block_matrix(c: KoszulComplex, dom, cod) -> FpMatrix:
    """Matrix of d from the keys ``dom`` to the keys ``cod``, columns and rows in that order.

    ``cod`` must hold every key that d reaches from ``dom``: one grade of
    degree d + 1 does for the same grade of degree d.
    """
    d = dom[0][0].bit_count() + dom[0][1].bit_count() if dom else 0
    return next(_degree_blocks(c, d, {0: dom}, {0: cod}, True))[2]


def differential_matrix(c: KoszulComplex, d: int) -> FpMatrix:
    """Matrix of d from the degree-d basis to the degree-(d+1) basis.

    Rows are indexed by the codomain basis, columns by the domain basis, both
    in the canonical order.  For d = top degree the codomain is empty.  This
    is the one-block case of the graded blocks ``betti`` works on.
    """
    dom = _basis_bits(c.w, c.r, d) if 0 <= d <= c.top_degree else ()
    cod = _basis_bits(c.w, c.r, d + 1) if d + 1 <= c.top_degree else ()
    return _block_matrix(c, dom, cod)


def _degree_blocks(c: KoszulComplex, d: int, dom: dict, cod: dict, every: bool):
    """Yield (grade, keys, block of d) for each grade of the degree-d ``dom`` that
    has keys in ``cod``, or for every grade when ``every``, in ``dom``'s order.

    Every block passes ``fplin.check_block`` before the first is built; then d
    of the whole degree comes from one ``_diff_triplets`` call, scattered per
    grade, and each block is allocated only when it is yielded.
    """
    grades = [g for g in dom if every or g in cod]
    for g in grades:
        fplin.check_block(len(cod.get(g, ())), len(dom[g]), f"degree {d}")
    col_start = np.cumsum([0] + [len(dom[g]) for g in grades])
    row_start = np.cumsum([0] + [len(cod.get(g, ())) for g in grades])
    j, e, x, vals = _diff_triplets(c, *_key_arrays([key for g in grades for key in dom[g]]))
    ce, cx = _key_arrays([key for g in grades for key in cod.get(g, ())])
    rows = _find(cx << c.w | ce, x << c.w | e)
    cut = np.searchsorted(j, col_start)
    for i, g in enumerate(grades):
        a = np.zeros((row_start[i + 1] - row_start[i], col_start[i + 1] - col_start[i]), dtype=np.int64)
        s = slice(cut[i], cut[i + 1])
        a[rows[s] - row_start[i], j[s] - col_start[i]] = vals[s]
        yield g, dom[g], FpMatrix(a, c.p)


def _monomial_pairs(c: KoszulComplex):
    """The pair (a, b), a < b, of each quadratic c_t e_a e_b, or None unless all are single monomials."""
    pairs = []
    for q in c.quadratics:
        if len(q._terms) != 1:
            return None
        ((eb, _),) = q._terms
        pairs.append(tuple(i for i in range(c.w) if eb >> i & 1))
    return pairs


def _bit_codes(c: KoszulComplex, pairs) -> list[int]:
    """The multidegree code of each generator, e_1..e_w then x_1..x_r, given the
    pair (a, b) of each quadratic; a key's code is the sum over its factors.

    The code of the Z^w multidegree (e_i -> eps_i, x_t -> eps_a + eps_b) has
    digit i in base r + 2: a digit counts e_i at most once and the x_t through
    i at most r times, so sums never carry and every code is below
    (r + 2)^w <= 2^48 (see ``HARD_SIZE_LIMIT``).
    """
    base = c.r + 2
    return [base ** i for i in range(c.w)] + [base ** a + base ** b for a, b in pairs]


def _subset_sums(codes) -> np.ndarray:
    """The sum of ``codes[i]`` over the set bits i of every mask below 2^len(codes), indexed by mask."""
    sums = np.zeros(1, dtype=np.int64)
    for code in codes:
        sums = np.concatenate((sums, sums + code))
    return sums


def _grading(c: KoszulComplex):
    """A grade of the basis keys (e_bits, x_bits) that d preserves, as an integer.

    When every quadratic is a single monomial c e_a e_b this is the code of
    the Z^w multidegree, e_i -> eps_i and x_t -> eps_a + eps_b (``_bit_codes``);
    otherwise the internal weight |S| + 2|T| of e_S x_T.
    """
    pairs = _monomial_pairs(c)
    if pairs is None:
        return lambda key: key[0].bit_count() + 2 * key[1].bit_count()
    codes = _bit_codes(c, pairs)
    w = c.w

    def grade(key):
        m, g = key[1] << w | key[0], 0
        while m:
            low = m & -m
            g += codes[low.bit_length() - 1]
            m ^= low
        return g

    return grade


def _orbit_ranks(c: KoszulComplex, pairs) -> list[int]:
    """rank(d_d) for d = 0..w+r when the quadratics' pairs are every pair {a, b} once.

    Then S_w acts on the complex by chain automorphisms (rescale each x_t by
    c_t, permute the e_i, send x_ab to +-x_(sigma a)(sigma b)), so the blocks of
    multidegrees mu and sigma mu have equal rank at every p.  Only the blocks
    of non-increasing mu are built, and each rank counts w!/prod m_k! times,
    m_k being the multiplicities of the entries of mu.  The keys are gathered
    by multidegree code (``_bit_codes``): the keys of mu are the e_S x_T with
    code(T) = code(mu) - code(S), found for all 2^w e-masks S and all mu at
    once by binary search in the sorted codes of the 2^r x-masks.  A
    difference that borrows has a digit r + 1, which no x-mask code has.  d of
    every built block comes from one ``_diff_triplets`` call.

    Poincare duality (Lambrechts and Stanley, Ann. Sci. ENS 41, 2008) halves
    that: the top coefficient of a b pairs each key with +-its complement, mu
    with w - mu, and d never reaches the top class (the only key of weight
    w + 2r), so d_(top-1-d) is +-the transpose of the derivation d_d.  The
    block of d_d at mu has the rank of the block of d_(top-1-d) at
    mu* = (w - mu) reversed, with the multiplicities of mu.  Of mu and mu*
    only the one listed first is built, its ranks counting for both; a
    self-dual mu ranks only d <= top-1-d.
    """
    w, top = c.w, c.top_degree
    codes = _bit_codes(c, pairs)
    digits = np.array(codes[:w], dtype=np.int64)
    mus = list(combinations_with_replacement(range(w, -1, -1), w))
    mus = np.array(mus, dtype=np.int64).reshape(len(mus), w)
    mu_codes = mus @ digits
    index = {code: k for k, code in enumerate(mu_codes.tolist())}
    star = np.array([index[code] for code in ((w - mus[:, ::-1]) @ digits).tolist()], dtype=np.int64)
    built = np.flatnonzero(star >= np.arange(len(mus)))  # of mu and mu*, the one listed first
    fact = np.cumprod(np.concatenate(([1], np.arange(1, w + 1))))
    orbit = fact[w] // fact[(mus[built, :, None] == np.arange(w + 1)).sum(axis=1)].prod(axis=1)

    # every key e_S x_T of a built mu, ordered by block (mu, degree |S| + |T|)
    x_codes = _subset_sums(codes[w:])
    x_order = np.argsort(x_codes)
    x_codes = x_codes[x_order]
    need = mu_codes[built, None] - _subset_sums(codes[:w])  # code(T) for each (built mu, S)
    lo = np.searchsorted(x_codes, need)
    hits = np.searchsorted(x_codes, need, side="right") - lo
    k, eb = np.nonzero(hits)
    n = hits[k, eb]
    xb = x_order[np.repeat(lo[k, eb] - np.cumsum(n) + n, n) + np.arange(n.sum())]
    k, eb = np.repeat(k, n), np.repeat(eb, n)
    block = k * (top + 2) + (mus[built].sum(axis=1)[k] + np.bitwise_count(eb)) // 2
    order = np.argsort(block)
    eb, xb = eb[order], xb[order]
    blocks, start, size = np.unique(block[order], return_index=True, return_counts=True)
    k, deg = np.divmod(blocks, top + 2)

    # the block (mu, d) -> (mu, d + 1), next in order, wherever that has keys
    ranked = np.append(blocks[1:] == blocks[:-1] + 1, False)
    self_dual = star[built[k]] == built[k]
    ranked &= ~self_dual | (2 * deg <= top - 1)
    for i in np.flatnonzero(ranked):
        fplin.check_block(int(size[i + 1]), int(size[i]), f"degree {deg[i]}")
    dom = np.flatnonzero(np.repeat(ranked, size))
    j, te, tx, vals = _diff_triplets(c, eb[dom], xb[dom])
    cols, rows = dom[j], _find(xb << w | eb, tx << w | te)
    cut = np.searchsorted(cols, np.append(start, eb.size))

    ranks = [0] * (top + 1)
    for i in np.flatnonzero(ranked).tolist():
        a = np.zeros((size[i + 1], size[i]), dtype=np.int64)
        s = slice(cut[i], cut[i + 1])
        a[rows[s] - start[i + 1], cols[s] - start[i]] = vals[s]
        rank = int(orbit[k[i]]) * fplin.rank(FpMatrix(a, c.p))
        d = int(deg[i])
        ranks[d] += rank
        if not self_dual[i] or 2 * d < top - 1:
            ranks[top - 1 - d] += rank
    return ranks


def _graded_basis(c: KoszulComplex, d: int, grade) -> dict:
    """The degree-d basis keys bucketed by grade, each bucket in canonical order."""
    buckets: dict = {}
    for key in _basis_bits(c.w, c.r, d):
        buckets.setdefault(grade(key), []).append(key)
    return buckets


@dataclass(frozen=True)
class CohomologyClass:
    """A homology class with its canonical representative cocycle."""

    degree: int
    representative: ExtElement
    table: "BettiTable"

    def is_zero(self) -> bool:
        return self.representative.is_zero()

    def __mul__(self, other: "CohomologyClass") -> "CohomologyClass":
        return cup(self, other)

    def __str__(self) -> str:
        return f"[{self.representative}]"


class BettiTable:
    """Homology dimensions (and optionally representatives) of a complex.

    ``dims[d]`` is the dimension in degree d for d = 0..w+r.  When computed
    with representatives, ``representatives[d]`` lists canonical cocycles
    whose classes form a basis, and ``_matrices[d]`` maps each grade of
    degree d to its keys, the RREF of its boundaries (rank-many rows, in
    ``fplin._width(p)``) and that RREF's pivots.  Compared by identity; cup
    products require both classes to come from the same table.
    """

    def __init__(self, complex: KoszulComplex, dims, representatives, matrices):
        self.complex = complex
        self.dims = tuple(int(b) for b in dims)
        self.representatives = representatives
        self._matrices = matrices
        self._grade = None if matrices is None else _grading(complex)

    def classes(self, degree: int) -> list[CohomologyClass]:
        if self.representatives is None:
            raise ValueError("table was computed without representatives")
        if not 0 <= degree <= self.complex.top_degree:
            return []
        return [CohomologyClass(degree, r, self) for r in self.representatives[degree]]

    def unit(self) -> CohomologyClass:
        return self.class_from_cocycle(self.complex.ambient.one())

    def class_from_cocycle(self, elem: ExtElement, degree: int | None = None) -> CohomologyClass:
        """The class of a cocycle, as its canonical representative.

        Raises NotACocycle unless d(elem) = 0.  The representative is the
        normal form of elem modulo the boundaries: grade by grade, elem's part
        reduced against its block's boundary RREF, one row in that RREF's
        width.  Every representative is zero on that RREF's pivots, so the
        normal form is the one combination of representatives in elem's class.
        Nothing is eliminated here.
        """
        if self.representatives is None:
            raise ValueError("table was computed without representatives")
        c = self.complex
        if elem.ambient != c.ambient:
            raise AmbientMismatch(f"{elem.ambient} != {c.ambient}")
        if elem.is_zero():
            return CohomologyClass(0 if degree is None else degree, elem, self)
        d = elem.degree()
        if d is None:
            raise ValueError("representative must be homogeneous")
        if degree is not None and degree != d:
            raise ValueError(f"element has degree {d}, expected {degree}")
        if not differential(c, elem).is_zero():
            raise NotACocycle(f"d({elem}) != 0")

        by_grade: dict = {}
        for key, coeff in elem._terms.items():
            by_grade.setdefault(self._grade(key), {})[key] = coeff
        out: dict = {}
        for g, terms in by_grade.items():
            keys, bnd_rref, bnd_pivots = self._matrices[d][g]
            index = {k: i for i, k in enumerate(keys)}
            v = np.zeros((1, len(keys)), dtype=bnd_rref.dtype)
            for key, coeff in terms.items():
                v[0, index[key]] = coeff
            out.update(_residue_terms(keys, fplin._reduce_rows(v, bnd_rref, bnd_pivots, c.p)[0]))
        return CohomologyClass(d, ExtElement._from_residues(c.ambient, out), self)


def _residue_terms(keys, v: np.ndarray) -> dict:
    """The term map of a residue vector over ``keys``, in key order, read in one step."""
    nz = np.flatnonzero(v)
    return dict(zip(map(keys.__getitem__, nz.tolist()), v[nz].tolist()))


def betti(c: KoszulComplex, *, with_representatives: bool = True, workers: int | None = None) -> BettiTable:
    """Homology of the complex: dims b_0..b_(w+r) and canonical representatives.

    b_d = dim ker(d_d) - rank(d_(d-1)).  Each degree's basis is split into
    the grades of ``_grading``, and d maps each grade into the same grade of
    the next degree, so every step works on one block at a time.  Without
    representatives, ranks are summed over the blocks and nothing is kept;
    when the quadratics are single monomials over every pair {a, b} once,
    only one block per S_w orbit of multidegrees is ranked, weighted by the
    orbit size, and of those one of each Poincare-dual pair, as the top-class
    pairing makes d_(w+r-1-d) +-the transpose of d_d (``_orbit_ranks``).
    With them, each block's kernel basis is reduced modulo the RREF of its
    incoming boundaries (the pivot columns of the previous degree's block), as
    ``fplin.quotient_representatives`` does, and the representatives are
    merged in the canonical order of their source cycle's free column, the
    order one full-degree matrix would give.  Each degree's blocks come from
    one ``_diff_triplets`` call (``_degree_blocks``).  A block over
    ``fplin.BLOCK_CAP`` raises ``fplin.BudgetExceeded`` before any block of
    its degree is built, naming its degree and shape (``fplin.check_block``).
    ``workers`` is accepted for compatibility and ignored: degrees always run
    serially.
    """
    top = c.top_degree
    pairs = _monomial_pairs(c)
    if not with_representatives and pairs is not None and sorted(pairs) == list(combinations(range(c.w), 2)):
        ranks = _orbit_ranks(c, pairs)
        dims = [comb(top, d) - ranks[d] - (ranks[d - 1] if d else 0) for d in range(top + 1)]
        return BettiTable(c, dims, None, None)
    grade = _grading(c)
    dims, reps_by_degree, blocks_by_degree = [], [], []
    prev_rank, incoming = 0, {}
    cod = _graded_basis(c, 0, grade)
    for d in range(top + 1):
        dom, cod = cod, _graded_basis(c, d + 1, grade)
        rank, outgoing, found, blocks = 0, {}, [], {}
        for g, keys, m in _degree_blocks(c, d, dom, cod, with_representatives):
            if not with_representatives:
                rank += fplin.rank(m)
                continue
            ker, free, piv = fplin._kernel(m)
            rank += len(piv)
            outgoing[g] = m.entries[:, piv].T  # independent columns spanning the image
            bnd = incoming.get(g, np.zeros((0, len(keys)), dtype=np.int64))
            pairs, bnd_rref, bnd_pivots = fplin._quotient_pairs(ker, ker, free, bnd, c.p)
            found += [(keys[free[i]][::-1], keys, v) for i, v in pairs]  # sorted by (x, e) of the free column
            blocks[g] = (keys, bnd_rref, bnd_pivots)
        found.sort(key=lambda item: item[0])
        reps = [ExtElement._from_residues(c.ambient, _residue_terms(keys, v)) for _, keys, v in found]
        dims.append(sum(map(len, dom.values())) - rank - prev_rank)
        prev_rank, incoming = rank, outgoing
        reps_by_degree.append(tuple(reps))
        blocks_by_degree.append(blocks)
    if not with_representatives:
        return BettiTable(c, dims, None, None)
    return BettiTable(c, dims, tuple(reps_by_degree), blocks_by_degree)


def cup(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Cup product of two classes from the same table.

    The wedge of the representatives is reduced modulo boundaries, which also
    checks that it is a cocycle.  Degrees beyond w + r carry no classes, so
    the product is the zero class there (rather than an error).
    """
    if a.table is not b.table:
        raise ValueError("classes come from different Betti tables")
    t = a.table
    d = a.degree + b.degree
    if d > t.complex.top_degree:
        return CohomologyClass(d, t.complex.ambient.zero(), t)
    z = a.representative * b.representative
    if z.is_zero():
        return CohomologyClass(d, z, t)
    return t.class_from_cocycle(z, degree=d)


def unp_complex(n: int, p) -> KoszulComplex:
    """The universal complex for n generators: w = n and all products e_i e_j.

    Built by canonicalizing the full k-invariant subspace (Bockstein basis
    plus every quadratic e_i e_j with i < j), so r = C(n, 2).  The C(n, 2)
    quadratics are distinct basis monomials, so always independent.
    """
    p = as_prime(p)
    amb0 = Ambient(n, 0, p)
    entries: list[tuple[tuple[int, ...], ExtElement]] = []
    for i in range(n):
        bvec = tuple(1 if j == i else 0 for j in range(n))
        entries.append((bvec, amb0.zero()))
    zero_b = tuple(0 for _ in range(n))
    for eb, _ in _basis_bits(n, 0, 2):
        entries.append((zero_b, QuadraticForm(amb0, {(eb, 0): 1})))
    k = KInvariantSubspace(n, p, tuple(entries))
    if k.v != n + comb(n, 2):
        raise AssertionError(f"v = {k.v}: the universal subspace must have dimension n + C(n, 2) = {n + comb(n, 2)}")
    return canonicalize(k)
