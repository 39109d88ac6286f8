"""Finite p-groups of exponent p^2 built from 2-step nilpotent Lie algebras.

An algebra with basis b_1..b_n' over F_p and central brackets defines a group
on the free Z/p^2 module K of rank n': with pi the mod-p reduction and i the
multiply-by-p lift of least residues,

    x * y = x + y + i([pi(x), pi(y)])

An optional subspace S of the mod-p quotient carves out the subgroup
pi^(-1)(S) of order p^(n' + dim S); without it the group is all of K with
order p^(2n').  Always x^p = p x, so the elements of order dividing p are
exactly p K and every one of them is central.

Batch verification runs on int64 numpy arrays; the modulus is capped and the
bracket's nonzero structure constants are counted so that every intermediate
(including the bilinear bracket contraction) stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import fplin
from .fplin import FpMatrix, Prime, as_prime

__all__ = [
    "TwoStepLieAlgebra",
    "PGroupElement",
    "PGroup",
    "VerificationReport",
    "ConstraintViolation",
    "BudgetExceeded",
    "free_two_step",
    "unp_group",
]

# p^2 < 2^31 keeps every product of two residues mod p^2 inside exact int64.
# The bracket contraction is bounded separately (_check_bracket_bound).
_PGROUP_PRIME_CAP = 46337

DEFAULT_BUDGET = 10 ** 6
DEFAULT_TRIPLES = 10 ** 5
ASSOC_EXHAUSTIVE_BUDGET = 10 ** 8


def _check_bracket_bound(terms: int, p: int) -> None:
    """Refuse a bracket contraction that could overflow int64.

    Each output coordinate k of the batched bracket sums one product of three
    residues mod p per nonzero structure constant [b_i, b_j]_k, so the sum is
    exact when terms * (p - 1)^3 < 2^63, where terms is the largest such count.
    """
    if terms * (p - 1) ** 3 >= 1 << 63:
        raise ValueError(
            f"{terms} nonzero structure constants in one coordinate times (p - 1)^3"
            f" reach 2^63 at p = {p}; the bracket contraction would overflow int64"
        )


class ConstraintViolation(ValueError):
    """Element coordinates do not reduce into the constraint subspace."""


class BudgetExceeded(RuntimeError):
    """An exhaustive operation was requested beyond the configured budget."""


@dataclass(frozen=True)
class TwoStepLieAlgebra:
    """Structure constants of a 2-step nilpotent Lie algebra.

    ``bracket[i][j]`` is the integer coefficient vector of [b_i, b_j]; it must
    be antisymmetric, vanish on the diagonal and whenever either argument is
    central, and land inside the span of the central indices.
    """

    gen_count: int
    bracket: tuple[tuple[tuple[int, ...], ...], ...]
    central: frozenset[int]

    def __post_init__(self):
        n = self.gen_count
        object.__setattr__(self, "central", frozenset(self.central))
        br = tuple(tuple(tuple(int(c) for c in vec) for vec in row) for row in self.bracket)
        object.__setattr__(self, "bracket", br)
        if len(br) != n or any(len(row) != n for row in br):
            raise ValueError("bracket table must be gen_count x gen_count")
        for i in range(n):
            for j in range(n):
                vec = br[i][j]
                if len(vec) != n:
                    raise ValueError("bracket values must be coefficient vectors of full length")
                if i == j and any(vec):
                    raise ValueError(f"[b_{i}, b_{i}] must vanish")
                if tuple(-c for c in vec) != br[j][i]:
                    raise ValueError(f"bracket table is not antisymmetric at ({i}, {j})")
                if (i in self.central or j in self.central) and any(vec):
                    raise ValueError(f"central generator occurs in a nonzero bracket ({i}, {j})")
                if any(c for k, c in enumerate(vec) if k not in self.central):
                    raise ValueError(f"[b_{i}, b_{j}] leaves the center")


def free_two_step(n: int) -> TwoStepLieAlgebra:
    """The free 2-step nilpotent algebra on n generators.

    Basis: b_1..b_n, then one central generator per pair (i, j) with i < j in
    lexicographic order; [b_i, b_j] is the pair generator.  Dimension C(n+1, 2).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    pairs = list(combinations(range(n), 2))
    total = n + len(pairs)
    zero = tuple(0 for _ in range(total))
    table = [[zero for _ in range(total)] for _ in range(total)]
    for k, (i, j) in enumerate(pairs):
        vec = [0] * total
        vec[n + k] = 1
        table[i][j] = tuple(vec)
        table[j][i] = tuple(-c for c in vec)
    return TwoStepLieAlgebra(total, tuple(tuple(row) for row in table), frozenset(range(n, total)))


@dataclass(frozen=True)
class PGroupElement:
    """Coordinates over Z/p^2 with respect to the algebra basis."""

    coords: tuple[int, ...]


def _all_vectors(p: int, k: int) -> np.ndarray:
    """All of [0, p)^k as rows, lexicographic."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(p, dtype=np.int64)] * k), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, k)


def _module_log_order(rows: np.ndarray, p: int) -> int:
    """log_p of the order of the Z/p^2 submodule spanned by the rows.

    Two-stage elimination: unit pivots first (each a Z/p^2 summand), then the
    remaining rows, all divisible by p, are divided by p and ranked mod p.
    """
    q = p * p
    A = np.mod(np.asarray(rows, dtype=np.int64), q)
    if A.size == 0:
        return 0
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        unit = np.nonzero(A[r:, c] % p)[0]
        if unit.size == 0:
            continue
        i = r + int(unit[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), -1, q)
        A[r] = A[r] * inv % q
        below = r + 1 + np.nonzero(A[r + 1:, c])[0]
        if below.size:
            A[below] = (A[below] - np.outer(A[below, c], A[r])) % q
        r += 1
    k1 = r
    rest = A[k1:]
    assert not (rest % p).any(), "stage-1 leftovers must be divisible by p"
    k2 = fplin.rank(FpMatrix(rest // p, p)) if rest.size else 0
    return 2 * k1 + k2


@dataclass(frozen=True)
class VerificationReport:
    group_order: int
    mode: str
    associativity_ok: bool
    associativity_exhaustive: bool
    associativity_triples: int
    identity_inverse_ok: bool
    pc_ok: bool
    pc_pairs: int
    omega1_rank: int
    abelianization_rank: int
    commutator_rank: int
    exponent: int
    seed: int | None


class PGroup:
    """The group on pi^(-1)(S) (or on all of K when S is omitted)."""

    def __init__(self, algebra: TwoStepLieAlgebra, p, constraint=None):
        self.algebra = algebra
        self.p = as_prime(p)
        if self.p > _PGROUP_PRIME_CAP:
            raise ValueError(
                f"p = {int(self.p)} exceeds the {_PGROUP_PRIME_CAP} cap for exact batch arithmetic"
            )
        self.q = int(self.p) ** 2
        n = algebra.gen_count
        self._table = np.mod(np.array(algebra.bracket, dtype=np.int64), self.p)
        if n:
            _check_bracket_bound(int(np.count_nonzero(self._table, axis=(0, 1)).max()), int(self.p))
        if constraint is None:
            self._s_basis = np.eye(n, dtype=np.int64)
        else:
            rows = np.mod(np.asarray(list(constraint), dtype=np.int64).reshape(-1, n), self.p)
            red, piv = fplin.rref(FpMatrix(rows, self.p))
            self._s_basis = red.entries[: len(piv)].copy()
        self.s_dim = self._s_basis.shape[0]
        self.constrained = constraint is not None

    # -- structure ------------------------------------------------------

    @property
    def order(self) -> int:
        return int(self.p) ** (self.algebra.gen_count + self.s_dim)

    def _member_rows(self, rows: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows reduce into S mod p."""
        if not self.constrained:
            return np.ones(rows.shape[0], dtype=bool)
        red = np.mod(rows, self.p)
        for basis_row in self._s_basis:
            c = int(np.nonzero(basis_row)[0][0])
            red = (red - np.outer(red[:, c], basis_row)) % self.p
        return ~red.any(axis=1)

    def contains(self, x: PGroupElement) -> bool:
        return bool(self._member_rows(self._row(x))[0])

    def _row(self, x: PGroupElement) -> np.ndarray:
        coords = np.asarray(x.coords, dtype=np.int64)
        if coords.shape != (self.algebra.gen_count,):
            raise ValueError(f"expected {self.algebra.gen_count} coordinates")
        return np.mod(coords, self.q).reshape(1, -1)

    def element(self, coords) -> PGroupElement:
        """Normalize coordinates mod p^2; raises ConstraintViolation off S."""
        e = PGroupElement(tuple(int(c) % self.q for c in coords))
        if not self.contains(e):
            raise ConstraintViolation(f"{e.coords} does not reduce into the constraint subspace")
        return e

    def identity(self) -> PGroupElement:
        return PGroupElement(tuple(0 for _ in range(self.algebra.gen_count)))

    # -- group operations -------------------------------------------------

    def _mult_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched product of row arrays (broadcastable shapes)."""
        ra = a % self.p
        rb = b % self.p
        br = np.einsum("...i,...j,ijk->...k", ra, rb, self._table) % self.p
        return ((a + b) % self.q + self.p * br) % self.q

    def _mult_rows_outer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All pairwise products of rows of a (m, n) and b (k, n) as (m, k, n).

        The bracket is contracted against b first, so the heavy step is a
        matrix product instead of a three-index loop over every pair.
        """
        ra = a % self.p
        rb = b % self.p
        tb = np.einsum("ijk,bj->bik", self._table, rb)
        br = np.einsum("ai,bik->abk", ra, tb) % self.p
        return ((a[:, None, :] + b[None, :, :]) % self.q + self.p * br) % self.q

    def multiply(self, x: PGroupElement, y: PGroupElement) -> PGroupElement:
        rx, ry = self._row(x), self._row(y)
        if not (self._member_rows(rx)[0] and self._member_rows(ry)[0]):
            raise ConstraintViolation("operands must satisfy the constraint")
        return PGroupElement(tuple(int(c) for c in self._mult_rows(rx, ry)[0]))

    def inverse(self, x: PGroupElement) -> PGroupElement:
        return self.element(tuple(-c for c in x.coords))

    def power(self, x: PGroupElement, k: int) -> PGroupElement:
        if k < 0:
            return self.power(self.inverse(x), -k)
        acc = self.identity()
        base = x
        while k:
            if k & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            k >>= 1
        return acc

    def order_of(self, x: PGroupElement) -> int:
        """Least k >= 1 with x^k = 1; always 1, p, or p^2 since x^p = p x."""
        if not self.contains(x):
            raise ConstraintViolation(f"{x.coords} does not satisfy the constraint")
        if not any(c % self.q for c in x.coords):
            return 1
        if not any((self.p * c) % self.q for c in x.coords):
            return int(self.p)
        return self.q

    # -- enumeration and sampling ------------------------------------------

    def _enumerate_rows(self, budget: int) -> np.ndarray:
        if self.order > budget:
            raise BudgetExceeded(
                f"order {self.order} exceeds the enumeration budget {budget}; use sampled mode"
            )
        n = self.algebra.gen_count
        cs = _all_vectors(self.p, self.s_dim)
        s_part = cs @ self._s_basis % self.p
        ts = _all_vectors(self.p, n)
        rows = (s_part[:, None, :] + self.p * ts[None, :, :]).reshape(-1, n)
        return rows[np.lexsort(rows.T[::-1])]

    def elements(self, *, budget: int = DEFAULT_BUDGET) -> list[PGroupElement]:
        """All elements in coordinate-lexicographic order (budget-guarded)."""
        return [PGroupElement(tuple(int(c) for c in row)) for row in self._enumerate_rows(budget)]

    def _sample_rows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        cs = rng.integers(0, self.p, size=(count, self.s_dim), dtype=np.int64)
        ts = rng.integers(0, self.p, size=(count, self.algebra.gen_count), dtype=np.int64)
        return (cs @ self._s_basis % self.p + self.p * ts) % self.q

    def _module_generators(self) -> np.ndarray:
        n = self.algebra.gen_count
        if not self.constrained:
            return np.eye(n, dtype=np.int64)
        return np.concatenate([self._s_basis, self.p * np.eye(n, dtype=np.int64)], axis=0)

    # -- verification --------------------------------------------------------

    def _subgroup_ranks(self) -> tuple[int, int, int]:
        """(log_p |Frattini|, commutator rank, exponent) from module generators."""
        gens = [PGroupElement(tuple(int(c) for c in row % self.q)) for row in self._module_generators()]
        comms = []
        for a, b in combinations(gens, 2):
            c = self.multiply(self.multiply(self.multiply(a, b), self.inverse(a)), self.inverse(b))
            comms.append(c.coords)
        powers = [self.power(g, int(self.p)).coords for g in gens]
        comm_rank = _module_log_order(np.array(comms or np.zeros((0, self.algebra.gen_count))), self.p)
        frat_log = _module_log_order(np.array(list(comms) + powers), self.p)
        if any(any(c % self.p for c in g.coords) for g in gens):
            exponent = self.q
        elif self.order > 1:
            exponent = int(self.p)
        else:
            exponent = 1
        return frat_log, comm_rank, exponent

    def verify(
        self,
        *,
        mode: str = "auto",
        budget: int = DEFAULT_BUDGET,
        triples: int = DEFAULT_TRIPLES,
        seed: int = 0,
    ) -> VerificationReport:
        """Check the group axioms and the structural invariants.

        Exhaustive whenever the order fits the budget (mode "auto"), with all
        triples checked if order^3 <= 1e8 and at least ``triples`` seeded
        random triples otherwise.  mode "exhaustive" beyond the budget raises
        BudgetExceeded; mode "sampled" never enumerates.
        """
        if mode not in ("auto", "exhaustive", "sampled"):
            raise ValueError(f"unknown mode {mode!r}")
        if triples < 1:
            raise ValueError(f"triples = {triples}: at least one triple is needed")
        if mode == "exhaustive" and self.order > budget:
            raise BudgetExceeded(
                f"order {self.order} exceeds the exhaustive budget {budget}; use sampled mode"
            )
        exhaustive = mode == "exhaustive" or (mode == "auto" and self.order <= budget)
        rng = np.random.default_rng(seed)
        n = self.algebra.gen_count
        frat_log, comm_rank, exponent = self._subgroup_ranks()
        log_order = n + self.s_dim

        if exhaustive:
            E = self._enumerate_rows(budget)
            zero = np.zeros((1, n), dtype=np.int64)
            ident_ok = (
                np.array_equal(self._mult_rows(E, zero), E)
                and np.array_equal(self._mult_rows(zero, E), E)
                and not self._mult_rows(E, (-E) % self.q).any()
            )
            if self.order ** 3 <= ASSOC_EXHAUSTIVE_BUDGET:
                assoc_exhaustive = True
                n_triples = self.order ** 3
                P = self._mult_rows_outer(E, E).reshape(-1, n)
                assoc_ok = True
                for z in E:
                    zrow = z.reshape(1, -1)
                    yz = self._mult_rows_outer(E, zrow)[:, 0, :]
                    lhs = self._mult_rows_outer(P, zrow)[:, 0, :]
                    rhs = self._mult_rows_outer(E, yz).reshape(-1, n)
                    if not np.array_equal(lhs, rhs):
                        assoc_ok = False
                        break
            else:
                assoc_exhaustive = False
                n_triples = triples
                xs, ys, zs = (self._sample_rows(rng, triples) for _ in range(3))
                assoc_ok = np.array_equal(
                    self._mult_rows(self._mult_rows(xs, ys), zs),
                    self._mult_rows(xs, self._mult_rows(ys, zs)),
                )
            omega_mask = ~((self.p * E) % self.q).any(axis=1)
            omega_count = int(omega_mask.sum())
            omega1_rank = 0
            c = omega_count
            while c > 1:
                if c % self.p:
                    raise AssertionError("count of order-p elements must be a p-power")
                c //= int(self.p)
                omega1_rank += 1
            pc_ok = True
            pc_pairs = 0
            for w in E[omega_mask]:
                wrow = w.reshape(1, -1)
                if not np.array_equal(self._mult_rows(wrow, E), self._mult_rows(E, wrow)):
                    pc_ok = False
                    break
                pc_pairs += len(E)
            exponent_seen = self.q if (~omega_mask).any() else (int(self.p) if len(E) > 1 else 1)
            assert exponent_seen == exponent
            report_mode = "exhaustive"
        else:
            xs, ys, zs = (self._sample_rows(rng, triples) for _ in range(3))
            assoc_exhaustive = False
            n_triples = triples
            assoc_ok = np.array_equal(
                self._mult_rows(self._mult_rows(xs, ys), zs),
                self._mult_rows(xs, self._mult_rows(ys, zs)),
            )
            zero = np.zeros((1, n), dtype=np.int64)
            ident_ok = (
                np.array_equal(self._mult_rows(xs, zero), xs)
                and np.array_equal(self._mult_rows(zero, xs), xs)
                and not self._mult_rows(xs, (-xs) % self.q).any()
            )
            omegas = (self.p * self._sample_rows(rng, triples)) % self.q
            pc_ok = np.array_equal(self._mult_rows(omegas, ys), self._mult_rows(ys, omegas))
            pc_pairs = triples
            omega1_rank = _module_log_order(self.p * np.eye(n, dtype=np.int64), self.p)
            report_mode = "sampled"

        return VerificationReport(
            group_order=self.order,
            mode=report_mode,
            associativity_ok=bool(assoc_ok),
            associativity_exhaustive=assoc_exhaustive,
            associativity_triples=int(n_triples),
            identity_inverse_ok=bool(ident_ok),
            pc_ok=bool(pc_ok),
            pc_pairs=int(pc_pairs),
            omega1_rank=int(omega1_rank),
            abelianization_rank=log_order - frat_log,
            commutator_rank=comm_rank,
            exponent=exponent,
            seed=seed,
        )


def unp_group(n: int, p) -> PGroup:
    """The universal group on n generators: constraint S = span(b_1..b_n)."""
    alg = free_two_step(n)
    rows = np.eye(alg.gen_count, dtype=np.int64)[:n]
    return PGroup(alg, p, constraint=rows)
