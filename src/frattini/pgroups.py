"""Finite p-groups of exponent p^2 built from 2-step nilpotent Lie algebras.

An algebra with basis b_1..b_n' over F_p and central brackets defines a group
on the free Z/p^2 module K of rank n': with pi the mod-p reduction and i the
multiply-by-p lift of least residues,

    x * y = x + y + i([pi(x), pi(y)])

An optional set of coordinates spans a subspace S of the mod-p quotient; its
subgroup pi^(-1)(S), where the other coordinates are multiples of p, has order
p^(n' + dim S).  Without it the group is all of K with order p^(2n').  Always
x^p = p x, so the elements of order dividing p are exactly p K and every one
of them is central.  Every commutator and p-th power lies in p K as well, so
the Frattini subgroup is an F_p subspace of p K and its order is p to an F_p
rank, the one reduction here (``fplin.rank``).

Batch verification runs on numpy arrays laid out coordinate-major: a batch
of elements is an (n', ...) array with one contiguous row per coordinate,
whether it holds the enumerated elements, sampled elements, module
generators or the operands of a Cayley table.  Every batch is built in one
integer width, the narrowest of int16, int32 and int64 that holds the
kernel exactly (``_check_bracket_bound``): int16 up to p = 31 for U(n) and
the free group.  One product kernel,
``PGroup._mult``, serves every check.  The algebra stores only the nonzero
brackets [b_i, b_j] with i < j, so the kernel sums each pair once, as
c (x_i y_j - x_j y_i) for each [b_i, b_j]_k = c nonzero mod p, then writes
a + b + p (bracket mod p) and reduces mod p^2 once.  Residues are
x - m (x // m) (``_mod``): numpy divides by a scalar far faster than it
takes ``%``.  The modulus is capped and the pairs per coordinate are
counted, so every intermediate stays exact in the chosen width.  Small
groups have associativity certified on every triple of their Cayley table
by Light's test, read only at the module generators as middle elements (all
elements if those fail to generate the table); sampled checks draw and
check their triples, and no other elements, a chunk of fixed byte size at a
time, so memory does not grow with the triple count.  In every mode p K is
certified central on the pairs (p e_k, module generator), which is exact
given the axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import fplin
from .fplin import BudgetExceeded, FpMatrix, InvalidInput, Prime, as_prime

__all__ = [
    "TwoStepLieAlgebra",
    "PGroupElement",
    "PGroup",
    "VerificationReport",
    "ConstraintViolation",
    "free_two_step",
    "unp_group",
]

# p^2 < 2^31 keeps every product of two residues mod p^2 inside exact int64.
# The bracket kernel's per-coordinate sums are bounded by _check_bracket_bound.
_PGROUP_PRIME_CAP = 46337

DEFAULT_BUDGET = 10 ** 6
DEFAULT_TRIPLES = 10 ** 5
ASSOC_EXHAUSTIVE_BUDGET = 10 ** 8
# Bytes of one sampled operand: a chunk holds _CHUNK_BYTES // (itemsize n')
# columns, 3276 for U(4, p) at int64 and 13,107 at int16.
_CHUNK_BYTES = 1 << 18


def _mod(x: np.ndarray, m: int) -> np.ndarray:
    """``x % m`` as x - m (x // m) on a new array of x's dtype; x is not written.

    m must be an exact ``int``: NumPy 2 takes only that as a weak scalar, and
    a ``Prime`` would promote a narrow x to int64.  The multiply-back
    m (x // m) reaches |x| + m - 1, which the width must hold.
    """
    r = x // m
    r *= -m
    r += x
    return r


def _check_bracket_bound(terms: int, p: int) -> np.dtype:
    """The integer width of the bracket kernel; refuse one that could overflow int64.

    Before it reduces, ``PGroup._mult`` sums, into coordinate k,
    c (x_i y_j - x_j y_i) over the pairs i < j with [b_i, b_j]_k = c nonzero
    mod p.  c, x_i, x_j, y_i and y_j are residues mod p, so each term lies in
    [-(p - 1)^3, (p - 1)^3], where terms is the largest count of such pairs
    in one coordinate, counted by ``PGroup.__init__`` from the algebra's map.
    int64 is refused when terms * (p - 1)^3 >= 2^63.  Otherwise the width is
    the narrowest of int16, int32 and int64 whose maximum holds every value
    ``_mult`` divides (``fplin._narrowest``, the rule ``fplin._width`` also
    uses): that sum plus p - 1 for ``_mod``'s multiply-back, and
    a + b + p (bracket mod p) < 3 p^2.  With one pair per coordinate (U(n)
    and the free group) that is int16 for p <= 31, int32 for
    37 <= p <= 1291 and int64 from 1297 to the prime cap.
    """
    if terms * (p - 1) ** 3 >= 1 << 63:
        raise InvalidInput(
            f"{terms} bracket pairs in one coordinate times (p - 1)^3"
            f" reach 2^63 at p = {p}; the bracket contraction would overflow int64"
        )
    return fplin._narrowest(max(terms * (p - 1) ** 3 + p - 1, 3 * p * p))


class ConstraintViolation(InvalidInput):
    """Element coordinates do not reduce into the constraint subspace."""


@dataclass(frozen=True)
class TwoStepLieAlgebra:
    """Structure constants of a 2-step nilpotent Lie algebra.

    ``bracket`` maps each pair (i, j) with i < j to the integer coefficients
    {k: c} of [b_i, b_j]; a mapping or (key, value) pairs are accepted, and
    the nonzero brackets are stored as a sorted tuple of ((i, j), ((k, c), ...))
    pairs.  [b_j, b_i] = -[b_i, b_j] and [b_i, b_i] = 0 are implied, so keys
    must satisfy 0 <= i < j < gen_count, neither argument of a nonzero bracket
    may be central, and every value must lie in the span of the central indices.
    """

    gen_count: int
    bracket: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]
    central: frozenset[int]

    def __post_init__(self):
        n = self.gen_count
        if n < 1:
            raise InvalidInput(f"gen_count = {n}: an algebra needs at least one generator")
        central = frozenset(self.central)
        object.__setattr__(self, "central", central)
        if not all(0 <= k < n for k in central):
            raise InvalidInput(f"central indices must lie in range({n})")
        entries = []
        for (i, j), vec in dict(self.bracket).items():
            i, j = int(i), int(j)
            if not 0 <= i < j < n:
                raise InvalidInput(f"bracket key ({i}, {j}) needs 0 <= i < j < {n}")
            vec = tuple(sorted((int(k), int(c)) for k, c in dict(vec).items() if c))
            if not vec:
                continue
            if i in central or j in central:
                raise InvalidInput(f"central generator occurs in a nonzero bracket ({i}, {j})")
            if any(k not in central for k, _ in vec):
                raise InvalidInput(f"[b_{i}, b_{j}] leaves the center")
            entries.append(((i, j), vec))
        object.__setattr__(self, "bracket", tuple(sorted(entries)))


def free_two_step(n: int) -> TwoStepLieAlgebra:
    """The free 2-step nilpotent algebra on n generators.

    Basis: b_1..b_n, then one central generator per pair (i, j) with i < j in
    lexicographic order; [b_i, b_j] is the pair generator.  Dimension C(n+1, 2).
    """
    if n < 1:
        raise InvalidInput("n must be at least 1")
    pairs = combinations(range(n), 2)
    bracket = tuple(((i, j), ((n + k, 1),)) for k, (i, j) in enumerate(pairs))
    total = n + len(bracket)
    return TwoStepLieAlgebra(total, bracket, frozenset(range(n, total)))


@dataclass(frozen=True)
class PGroupElement:
    """Coordinates over Z/p^2 with respect to the algebra basis."""

    coords: tuple[int, ...]


def _all_vectors(p: int, k: int, dtype) -> np.ndarray:
    """All of [0, p)^k as the columns of a (k, p^k) array of ``dtype``, lexicographic."""
    grids = np.meshgrid(*([np.arange(p, dtype=dtype)] * k), indexing="ij")
    return np.stack(grids).reshape(k, -1) if k else np.zeros((0, 1), dtype=dtype)


def _table_associative(M: np.ndarray, gens: np.ndarray) -> bool:
    """Whether the index table M (M[x, y] the index of x y, all in range(N)) is
    associative, by Light's test (x a) y = x (a y) for all x and y at each
    middle a, up to the first failure.  The middles are ``gens`` when a
    right-multiplication closure from them reaches all N elements, and all N
    otherwise; ``PGroup.verify`` states why that is exact."""
    reached = np.zeros(len(M), dtype=bool)
    reached[gens] = True
    frontier = gens
    while len(frontier):
        new = np.unique(M[frontier][:, gens])
        frontier = new[~reached[new]]
        reached[frontier] = True
    middles = gens if reached.all() else range(len(M))
    return all(np.array_equal(M[M[:, a]], M[:, M[a]]) for a in middles)  # (x a) y, x (a y)


def _pk_log_order(rows: np.ndarray, p: int) -> int:
    """log_p of the order of the subgroup of p K that the rows generate.

    p K is elementary abelian, so that order is p to the F_p rank of rows / p.
    Every commutator and p-th power lies in p K; any other row is a bug.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if _mod(rows, p).any():
        raise AssertionError("Frattini generators must lie in p K")
    return fplin.rank(FpMatrix(rows // p, p))


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
    """The group on pi^(-1)(S), S spanned by the b_k at the coordinates k in
    ``constraint`` (all of K when it is omitted)."""

    def __init__(self, algebra: TwoStepLieAlgebra, p, constraint=None):
        self.algebra = algebra
        self.p = as_prime(p)
        if self.p > _PGROUP_PRIME_CAP:
            raise InvalidInput(
                f"p = {int(self.p)} exceeds the {_PGROUP_PRIME_CAP} cap for exact batch arithmetic"
            )
        self.q = int(self.p) ** 2
        n = algebra.gen_count
        # Per coordinate k that some bracket reaches, the pairs i < j with
        # [b_i, b_j]_k = c nonzero mod p, as (i, j, c mod p) in (i, j) order.
        by_coord: dict[int, list[tuple[int, int, int]]] = {}
        for (i, j), vec in algebra.bracket:
            for k, c in vec:
                if c % self.p:
                    by_coord.setdefault(k, []).append((i, j, c % self.p))
        self._brackets = sorted(by_coord.items())
        # Every batch is built in this width, so _mult computes in it.
        self._dtype = _check_bracket_bound(max(map(len, by_coord.values()), default=0), int(self.p))
        # Coordinates the bracket reads: i < j, so the largest j.
        self._span = 1 + max((j for _, terms in self._brackets for _, j, _ in terms), default=-1)
        self._chunk = _CHUNK_BYTES // (self._dtype.itemsize * n)  # columns per sampled or certificate chunk
        entries = range(n) if constraint is None else list(constraint)
        if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < n for c in entries):
            raise InvalidInput(f"constraint entries must be coordinate indices in range({n})")
        self._s = np.unique(np.asarray(entries, dtype=np.int64))
        self._off = np.setdiff1d(np.arange(n), self._s)
        self.s_dim = len(self._s)
        self.constrained = constraint is not None

    # -- structure ------------------------------------------------------

    @property
    def order(self) -> int:
        return int(self.p) ** (self.algebra.gen_count + self.s_dim)

    def _members(self, cols: np.ndarray) -> np.ndarray:
        """Boolean mask over the columns of an (n', m) batch: which are p-multiples off S."""
        return ~_mod(cols[self._off], self.p).any(axis=0)

    def contains(self, x: PGroupElement) -> bool:
        return bool(self._members(self._col(x))[0])

    def _col(self, x: PGroupElement) -> np.ndarray:
        coords = np.asarray(x.coords, dtype=np.int64)
        if coords.shape != (self.algebra.gen_count,):
            raise InvalidInput(f"expected {self.algebra.gen_count} coordinates")
        return _mod(coords, self.q).reshape(-1, 1)

    def element(self, coords) -> PGroupElement:
        """Normalize coordinates mod p^2; raises ConstraintViolation off S."""
        e = PGroupElement(tuple(int(c) % self.q for c in coords))
        if not self.contains(e):
            raise ConstraintViolation(f"{e.coords} does not reduce into the constraint subspace")
        return e

    def identity(self) -> PGroupElement:
        return PGroupElement(tuple(0 for _ in range(self.algebra.gen_count)))

    # -- group operations -------------------------------------------------

    def _mult(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched product of coordinate-major residues mod p^2.

        a and b are (n', ...) arrays of broadcastable shapes and are never
        written.  On the residues mod p of the ``_span`` coordinates read, the
        bracket in coordinate k sums c (x_i y_j - x_j y_i) over the stored
        pairs i < j with [b_i, b_j]_k = c (one pair per coordinate in the free
        and U(n) algebras); the result is a + b + p (bracket mod p), reduced mod p^2
        once.  It is computed in the operands' common dtype, exact when that
        is at least ``_dtype``.  Every scalar is an exact ``int`` (``int(self.p)``,
        not the ``Prime``), which keeps a narrow dtype from promoting to int64.
        """
        p = int(self.p)
        out = a + b
        ra = _mod(a[:self._span], p)
        rb = _mod(b[:self._span], p)
        for k, terms in self._brackets:
            br = None
            for i, j, c in terms:
                d = ra[i] * rb[j]
                d -= ra[j] * rb[i]
                if c != 1:
                    d *= c
                br = d if br is None else np.add(br, d, out=br)
            br = _mod(br, p)
            br *= p
            out[k] += br
        return _mod(out, self.q)

    def _mult_members(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``_mult`` on (n', m) batches that must reduce into S; raises ConstraintViolation otherwise."""
        if not (self._members(a).all() and self._members(b).all()):
            raise ConstraintViolation("operands must satisfy the constraint")
        return self._mult(a, b)

    def _power(self, cols: np.ndarray, k: int) -> np.ndarray:
        """Each column to the k-th power (k >= 0) by square-and-multiply."""
        acc = np.zeros_like(cols)
        while k:
            if k & 1:
                acc = self._mult_members(acc, cols)
            cols = self._mult_members(cols, cols)
            k >>= 1
        return acc

    def multiply(self, x: PGroupElement, y: PGroupElement) -> PGroupElement:
        return PGroupElement(tuple(int(c) for c in self._mult_members(self._col(x), self._col(y))[:, 0]))

    def inverse(self, x: PGroupElement) -> PGroupElement:
        return self.element(tuple(-c for c in x.coords))

    def power(self, x: PGroupElement, k: int) -> PGroupElement:
        col = self._col(self.inverse(x) if k < 0 else x)
        return PGroupElement(tuple(int(c) for c in self._power(col, abs(k))[:, 0]))

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

    def _enumerate(self, budget: int) -> np.ndarray:
        """All elements as the columns of an (n', order) array, lexicographic."""
        if self.order > budget:
            raise BudgetExceeded(f"order {self.order} exceeds the enumeration budget {budget}")
        n, p = self.algebra.gen_count, int(self.p)
        s_part = np.zeros((n, p ** self.s_dim), dtype=self._dtype)
        s_part[self._s] = _all_vectors(p, self.s_dim, self._dtype)
        cols = (s_part[:, :, None] + p * _all_vectors(p, n, self._dtype)[:, None, :]).reshape(n, -1)
        return cols[:, np.lexsort(cols[::-1])]

    def elements(self, *, budget: int = DEFAULT_BUDGET) -> list[PGroupElement]:
        """All elements in coordinate-lexicographic order (budget-guarded)."""
        return [PGroupElement(tuple(col)) for col in self._enumerate(budget).T.tolist()]

    def _sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` uniform elements s + p t of pi^(-1)(S) as an (n', count) array,
        left unreduced: entries are <= p - 1 + p (p - 1) < p^2.  t is drawn
        first, then the digits of s on the coordinates of S, in ``_dtype``."""
        p = int(self.p)
        xs = p * rng.integers(0, p, size=(self.algebra.gen_count, count), dtype=self._dtype)
        xs[self._s] += rng.integers(0, p, size=(self.s_dim, count), dtype=self._dtype)
        return xs

    def _module_generators(self) -> np.ndarray:
        """Generators of the group as a Z/p^2 module, as the columns of an (n', m) array."""
        eye = np.eye(self.algebra.gen_count, dtype=self._dtype)
        if not self.constrained:
            return eye
        return np.concatenate([eye[:, self._s], int(self.p) * eye], axis=1)

    # -- verification --------------------------------------------------------

    def _subgroup_ranks(self) -> tuple[int, int, int]:
        """(log_p |Frattini|, commutator rank, exponent) from the lifts e_k of S,
        batched: the commutators of their pairs (``combinations`` order) and
        their p-th powers are stacked columns; ``_mult_members`` raises
        ConstraintViolation on an operand off S.  The other module generators,
        p e_k, are central (``verify`` certifies it) with p-th power 0, and so
        is each e_k with k >= ``_span``, which no bracket reads."""
        lifts = np.eye(self.algebra.gen_count, dtype=np.int64)[:, self._s]
        read = lifts[:, self._s < self._span]
        a, b = (read[:, idx] for idx in np.triu_indices(read.shape[1], 1))
        mul = self._mult_members
        comms = mul(mul(mul(a, b), _mod(-a, self.q)), _mod(-b, self.q))
        comm_rank = _pk_log_order(comms.T, self.p)
        frat_log = _pk_log_order(np.concatenate([comms, self._power(lifts, int(self.p))], axis=1).T, self.p)
        exponent = self.q if self.s_dim else int(self.p)
        return frat_log, comm_rank, exponent

    def _identity_inverse_ok(self, cols: np.ndarray) -> bool:
        """Whether 0 is a two-sided identity for, and -x an inverse of, every column x."""
        zero = np.zeros((self.algebra.gen_count, 1), dtype=self._dtype)
        return (
            np.array_equal(self._mult(cols, zero), cols)
            and np.array_equal(self._mult(zero, cols), cols)
            and not self._mult(cols, _mod(-cols, self.q)).any()
        )

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
        BudgetExceeded; mode "sampled" never enumerates; InvalidInput for
        triples < 1, budget < 0 or seed < 0.

        All triples are certified on the Cayley table: the order^2 products
        are computed once and looked up as base-p^2 codes (first coordinate
        most significant, below q^n' <= order^2 <= 464^2) among the sorted
        codes of the elements, giving the index table M.  A product missing
        there fails closure, hence associativity.  Otherwise
        ``_table_associative`` runs Light's test: (x a) y = x (a y) for all x
        and y, for each module generator a.  The a passing it are closed
        under the product, since (x (a b)) y = ((x a) b) y = (x a) (b y)
        = x (a (b y)) = x ((a b) y); so once a right-multiplication closure
        on M from the generators reaches every element, the generators as
        middles (5 for U(2, 3)) cover all order^3 triples.  If it falls
        short, all order middles are read, so ``associativity_ok`` always
        means the table is associative.  In exhaustive mode identity and
        inverses are checked with ``_mult`` on the enumerated elements, and
        Omega_1 is counted among them.

        Sampled triples are drawn and checked ``_chunk`` columns at a time
        (``_CHUNK_BYTES`` per operand), so memory stays flat as ``triples``
        grows: each chunk draws x, y and z (coordinate-major, in that order)
        and, in sampled mode, checks identity and inverses on x.  Sampled mode
        counts nothing and reports rank n', as Omega_1 = p K.  In every mode
        each p e_k must then commute with each module generator, ``_chunk``
        pairs at a time up to the first failing chunk (``pc_pairs`` counts the
        pairs passed); given the axioms above, that makes Omega_1 = p K central.
        """
        if mode not in ("auto", "exhaustive", "sampled"):
            raise InvalidInput(f"unknown mode {mode!r}")
        if triples < 1:
            raise InvalidInput(f"triples = {triples}: at least one triple is needed")
        if budget < 0:
            raise InvalidInput(f"budget = {budget}: the enumeration budget cannot be negative")
        if seed < 0:
            raise InvalidInput(f"seed = {seed}: the seed must be non-negative")
        if mode == "exhaustive" and self.order > budget:
            raise BudgetExceeded(f"order {self.order} exceeds the exhaustive budget {budget}")
        exhaustive = mode == "exhaustive" or (mode == "auto" and self.order <= budget)
        assoc_exhaustive = exhaustive and self.order ** 3 <= ASSOC_EXHAUSTIVE_BUDGET
        rng = np.random.default_rng(seed)
        n = self.algebra.gen_count
        frat_log, comm_rank, exponent = self._subgroup_ranks()
        log_order = n + self.s_dim
        E = self._enumerate(budget) if exhaustive else None
        gens = self._module_generators()
        mul = self._mult

        ident_ok = True
        if assoc_exhaustive:
            weights = self.q ** np.arange(n - 1, -1, -1, dtype=np.int64)
            codes = weights @ E  # increasing, since E is lexicographic
            table = np.tensordot(weights, mul(E[:, :, None], E[:, None, :]), 1)
            M = np.searchsorted(codes, table)  # M[x, y]: index of E[x] * E[y]
            assoc_ok = np.array_equal(codes[np.minimum(M, self.order - 1)], table)
            assoc_ok = assoc_ok and _table_associative(M, np.searchsorted(codes, weights @ gens))
            n_triples = self.order ** 3
        else:
            assoc_ok = True
            for start in range(0, triples, self._chunk):
                count = min(self._chunk, triples - start)
                xs, ys, zs = (self._sample(rng, count) for _ in range(3))
                assoc_ok = assoc_ok and np.array_equal(mul(mul(xs, ys), zs), mul(xs, mul(ys, zs)))
                if not exhaustive:
                    ident_ok = ident_ok and self._identity_inverse_ok(xs)
            n_triples = triples

        pairs, pc_pairs = n * gens.shape[1], 0
        for start in range(0, pairs, self._chunk):
            k, j = np.divmod(np.arange(start, min(start + self._chunk, pairs)), gens.shape[1])
            w = np.multiply(np.arange(n)[:, None] == k, int(self.p), dtype=self._dtype)  # p e_k
            g = gens[:, j]
            if not np.array_equal(mul(w, g), mul(g, w)):
                break
            pc_pairs += len(k)

        if exhaustive:
            ident_ok = self._identity_inverse_ok(E)
            omega = np.nonzero(~_mod(E, int(self.p)).any(axis=0))[0]  # p x = 0 iff x is in p K
            omega1_rank = round(np.log(len(omega)) / np.log(self.p))
            if self.p ** omega1_rank != len(omega):
                raise AssertionError("count of order-p elements must be a p-power")
            exponent_seen = self.q if len(omega) < self.order else (int(self.p) if self.order > 1 else 1)
            if exponent_seen != exponent:
                raise AssertionError(f"exponent {exponent_seen} seen among the elements, {exponent} from the generators")
            report_mode = "exhaustive"
        else:
            omega1_rank = n  # Omega_1 = p K
            report_mode = "sampled"

        return VerificationReport(
            group_order=self.order,
            mode=report_mode,
            associativity_ok=bool(assoc_ok),
            associativity_exhaustive=assoc_exhaustive,
            associativity_triples=int(n_triples),
            identity_inverse_ok=bool(ident_ok),
            pc_ok=pc_pairs == pairs,
            pc_pairs=int(pc_pairs),
            omega1_rank=int(omega1_rank),
            abelianization_rank=log_order - frat_log,
            commutator_rank=comm_rank,
            exponent=exponent,
            seed=seed,
        )


def unp_group(n: int, p) -> PGroup:
    """The universal group on n generators: constraint S = span(b_1..b_n)."""
    return PGroup(free_two_step(n), p, constraint=range(n))
