"""Koszul complexes attached to k-invariant subspaces, their homology, and cup products.

The complex is Lambda(e_1..e_w) tensor Lambda(x_1..x_r) with the derivation
determined by d(e_i) = 0 and d(x_i) = q_i for chosen quadratics q_i in the
e-variables.  On a monomial with T = {t_1 < ... < t_k}:

    d(e_S x_T) = sum_j (-1)^(|S| + j - 1) q_(t_j) ^ e_S x_(T \\ t_j)

Homology in each degree is ker d / im d, computed by exact F_p elimination;
representatives are canonical, so repeated runs agree byte for byte.

d preserves a grading of the basis, so each degree's matrix is block-diagonal:
the internal weight |S| + 2|T| of e_S x_T always, and the finer Z^w
multidegree (e_i -> eps_i, x_t -> eps_a + eps_b) when every quadratic q_t is a
single monomial c e_a e_b, as for ``unp_complex``.  Betti numbers, the
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
of non-increasing multidegree, generated directly from the x-masks bucketed by
degree sequence, and weight it by the orbit size.  Of each pair of those
blocks made dual by the top-class pairing, which d never reaches, only one is
ranked.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from operator import sub

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

HARD_SIZE_LIMIT = 22


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
    guard ``fplin.check_block`` in ``betti`` does not.
    """

    __slots__ = ("w", "r", "p", "quadratics", "quadratics_independent", "ambient")

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


def _diff_term(c: KoszulComplex, e_bits: int, x_bits: int) -> dict[tuple[int, int], int]:
    """Differential of a single monomial as a term map (not reduced mod p)."""
    out: dict[tuple[int, int], int] = {}
    e_deg = e_bits.bit_count()
    m = x_bits
    pos = 1
    while m:
        low = m & -m
        t = low.bit_length()
        lead = -1 if (e_deg + pos - 1) & 1 else 1
        rem_x = x_bits ^ low
        for (qe, _), qc in c.quadratics[t - 1]._terms.items():
            if qe & e_bits:
                continue
            # sorting e_a e_b (a < b) into e_S x_T passes the bits of S strictly between a and b
            s = -1 if (e_bits & (qe - 2 * (qe & -qe))).bit_count() & 1 else 1
            k = (qe | e_bits, rem_x)
            out[k] = out.get(k, 0) + lead * s * qc
        m ^= low
        pos += 1
    return out


def differential(c: KoszulComplex, elem: ExtElement) -> ExtElement:
    """Apply the derivation d; raises total degree by one on each term."""
    if elem.ambient != c.ambient:
        raise AmbientMismatch(f"{elem.ambient} != {c.ambient}")
    out: dict[tuple[int, int], int] = {}
    for (eb, xb), coeff in elem._terms.items():
        for k, v in _diff_term(c, eb, xb).items():
            out[k] = out.get(k, 0) + coeff * v
    return ExtElement(c.ambient, out)


def _block_matrix(c: KoszulComplex, dom, cod) -> FpMatrix:
    """Matrix of d from the keys ``dom`` to the keys ``cod``, columns and rows in that order.

    ``cod`` must hold every key that d reaches from ``dom``: one grade of
    degree d + 1 does for the same grade of degree d.
    """
    if dom:
        fplin.check_block(len(cod), len(dom), f"degree {dom[0][0].bit_count() + dom[0][1].bit_count()}")
    index = {key: i for i, key in enumerate(cod)}
    a = np.zeros((len(cod), len(dom)), dtype=np.int64)
    for j, (eb, xb) in enumerate(dom):
        for k, v in _diff_term(c, eb, xb).items():
            a[index[k], j] = v
    return FpMatrix(a, c.p)


def differential_matrix(c: KoszulComplex, d: int) -> FpMatrix:
    """Matrix of d from the degree-d basis to the degree-(d+1) basis.

    Rows are indexed by the codomain basis, columns by the domain basis, both
    in the canonical order.  For d = top degree the codomain is empty.  This
    is the one-block case of the graded blocks ``betti`` works on.
    """
    dom = _basis_bits(c.w, c.r, d) if 0 <= d <= c.top_degree else ()
    cod = _basis_bits(c.w, c.r, d + 1) if d + 1 <= c.top_degree else ()
    return _block_matrix(c, dom, cod)


def _monomial_pairs(c: KoszulComplex):
    """The pair (a, b), a < b, of each quadratic c_t e_a e_b, or None unless all are single monomials."""
    pairs = []
    for q in c.quadratics:
        if len(q._terms) != 1:
            return None
        ((eb, _),) = q._terms
        pairs.append(tuple(i for i in range(c.w) if eb >> i & 1))
    return pairs


def _x_degrees(c: KoszulComplex, pairs) -> list[tuple[int, ...]]:
    """The multidegree of every x-mask T, indexed by T: the sum of eps_a + eps_b
    over the pairs (a, b) of the x_t in T."""
    degrees = [(0,) * c.w]
    for xb in range(1, 1 << c.r):
        deg = list(degrees[xb & (xb - 1)])
        a, b = pairs[(xb & -xb).bit_length() - 1]
        deg[a] += 1
        deg[b] += 1
        degrees.append(tuple(deg))
    return degrees


def _grading(c: KoszulComplex):
    """A grade of the basis keys (e_bits, x_bits) that d preserves.

    When every quadratic is a single monomial c e_a e_b this is the Z^w
    multidegree, e_i -> eps_i and x_t -> eps_a + eps_b, as a tuple.  Otherwise
    it is the internal weight |S| + 2|T| of e_S x_T.
    """
    pairs = _monomial_pairs(c)
    if pairs is None:
        return lambda key: key[0].bit_count() + 2 * key[1].bit_count()
    x_degrees = _x_degrees(c, pairs)
    return lambda key: tuple(m + (key[0] >> i & 1) for i, m in enumerate(x_degrees[key[1]]))


def _orbit_ranks(c: KoszulComplex, pairs) -> list[int]:
    """rank(d_d) for d = 0..w+r when the quadratics' pairs are every pair {a, b} once.

    Then S_w acts on the complex by chain automorphisms (rescale each x_t by
    c_t, permute the e_i, send x_ab to +-x_(sigma a)(sigma b)), so the blocks of
    multidegrees mu and sigma mu have equal rank at every p.  Only the blocks
    of non-increasing mu are built, each from the x-masks T whose degree
    sequence is mu - 1_S, and each rank counts w!/prod m_k! times, m_k being
    the multiplicities of the entries of mu.

    Poincare duality (Lambrechts and Stanley, Ann. Sci. ENS 41, 2008) halves
    that: the top coefficient of a b pairs each key with +-its complement, mu
    with w - mu, and d never reaches the top class (the only key of weight
    w + 2r), so d_(top-1-d) is +-the transpose of the derivation d_d.  The
    block of d_d at mu has the rank of the block of d_(top-1-d) at
    mu* = (w - mu) reversed, with the multiplicities of mu.  A mu* met after
    mu copies its ranks with d -> top-1-d and builds nothing; a self-dual mu
    ranks only d <= top-1-d.
    """
    w = c.w
    by_degree: dict[tuple, list[int]] = {}
    for xb, deg in enumerate(_x_degrees(c, pairs)):
        by_degree.setdefault(deg, []).append(xb)
    e_degrees = [tuple(eb >> i & 1 for i in range(w)) for eb in range(1 << w)]
    top = c.top_degree
    ranks = [0] * (top + 1)
    dual_ranks: dict[tuple, dict[int, int]] = {}  # block ranks by d of each mu whose mu* is to come
    for mu in combinations_with_replacement(range(w, -1, -1), w):
        orbit = factorial(w) // prod(map(factorial, Counter(mu).values()))
        mu_star = tuple(w - m for m in reversed(mu))
        if mu_star in dual_ranks:
            for d, rank in dual_ranks.pop(mu_star).items():
                ranks[top - 1 - d] += orbit * rank
            continue
        by_d: dict[int, list] = {}
        for eb, e_deg in enumerate(e_degrees):
            xbs = by_degree.get(tuple(map(sub, mu, e_deg)))
            if xbs:  # every T in one bucket has |T| = |mu - 1_S| / 2, so one degree
                by_d.setdefault(eb.bit_count() + xbs[0].bit_count(), []).extend((eb, xb) for xb in xbs)
        block_ranks = {}
        for d, keys in by_d.items():
            if d + 1 in by_d and (mu_star != mu or 2 * d <= top - 1):
                block_ranks[d] = rank = fplin.rank(_block_matrix(c, keys, by_d[d + 1]))
                ranks[d] += orbit * rank
                if mu_star == mu and 2 * d < top - 1:
                    ranks[top - 1 - d] += orbit * rank
        if mu_star != mu:
            dual_ranks[mu] = block_ranks
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
    order one full-degree matrix would give.  A block over ``fplin.BLOCK_CAP``
    raises ``fplin.BudgetExceeded`` before it is built, naming its degree and
    shape (``fplin.check_block``).  ``workers`` is accepted for compatibility
    and ignored: degrees always run serially.
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
        for g, keys in dom.items():
            rows = cod.get(g, ())
            if not with_representatives:
                rank += fplin.rank(_block_matrix(c, keys, rows)) if rows else 0
                continue
            m = _block_matrix(c, keys, rows)
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
