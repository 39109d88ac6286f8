"""Exact dense linear algebra over the prime field F_p.

Matrices are numpy integer arrays with entries reduced to [0, p).  The
modulus is capped below 2**31, so a product of two residues is at most
(p - 1)**2 < 2**62.  Elimination subtracts such products from the entries
without reducing them (delayed modular reduction): an entry that started as
a residue and has taken j updates lies in [-j * (p - 1)**2, p).  Every array
it eliminates is in one integer width chosen from p alone, ``_width(p)``:
the narrowest of int16, int32 and int64 that holds 2 (p - 1)**2 + p, so
int16 up to p = 127, int32 up to p = 32749 and int64 above.  ``_update``
lets at most ``_budget(p, dtype)`` updates pile up in the array it writes
and reduces mod p when one more could leave its width; the budget is 326 at
p = 11 in int16, 1 at p = 127, 32749 and 2**31 - 1 and 8 at p = 10**9 + 7 in
int64.  Pivot tests, multipliers and pivot rows are always read reduced, and
every public result is returned reduced and in int64.  Nothing sums products
(no ``@``, ``dot`` or ``einsum``): near p = 2**31 one such sum overflows.
All pivoting is deterministic (first nonzero entry, columns scanned left to
right), so kernel bases and quotient representatives are reproducible byte
for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Prime",
    "FpMatrix",
    "BoundaryNotCycle",
    "BudgetExceeded",
    "InvalidInput",
    "rank",
    "kernel_basis",
    "quotient_representatives",
    "rref",
    "solve",
]

_MODULUS_CAP = 1 << 31
BLOCK_CAP = 1 << 28  # bytes (256 MiB) that ``check_block`` lets one dense block need


class BoundaryNotCycle(ValueError):
    """A claimed boundary vector lies outside the span of the cycles."""


class BudgetExceeded(RuntimeError):
    """A computation was refused before it started: it would exceed a fixed size cap."""


class InvalidInput(ValueError):
    """A caller's argument is refused: out of range, malformed or unsupported."""


def _is_prime(n: int) -> bool:
    """Exact for n < 3,215,031,751 (above the 2**31 cap): a strong probable-prime
    test to the bases 2, 3, 5 and 7, which no composite below that bound passes."""
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """An odd prime below 2**31, validated by a deterministic Miller-Rabin test."""

    def __new__(cls, value: int) -> "Prime":
        v = int(value)
        if v >= _MODULUS_CAP:
            raise InvalidInput(f"modulus {v} exceeds the 2**31 cap")
        if v < 3 or v % 2 == 0 or not _is_prime(v):
            raise InvalidInput(f"{v} is not an odd prime")
        return super().__new__(cls, v)


def as_prime(p) -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


class FpMatrix:
    """Immutable dense matrix over F_p.

    ``entries`` is a read-only (rows x cols) int64 view with residues in
    [0, p).  Zero rows or columns are fine; both dimensions may be 0.
    """

    __slots__ = ("p", "_a")

    def __init__(self, entries, p):
        self.p = as_prime(p)
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2:
            if a.ndim == 1 and a.size == 0:
                a = a.reshape(0, 0)
            else:
                raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        np.mod(a, self.p, out=a)
        a.flags.writeable = False
        self._a = a

    @classmethod
    def zeros(cls, rows: int, cols: int, p) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p) -> "FpMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def entries(self) -> np.ndarray:
        return self._a

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self._a.shape == other._a.shape and bool(
            np.array_equal(self._a, other._a)
        )

    def __repr__(self) -> str:
        return f"FpMatrix({self._a.tolist()!r}, p={int(self.p)})"


_TOP = {np.dtype(t): int(np.iinfo(t).max) for t in (np.int16, np.int32, np.int64)}  # narrowest first


def _narrowest(largest: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 whose maximum holds ``largest``."""
    for t, top in _TOP.items():
        if largest <= top:
            return t


def _width(p: int) -> np.dtype:
    """The width every eliminated array has: the narrowest holding 2 (p - 1)**2 + p,
    which is exactly ``_budget(p, width) >= 1``; int16 for p <= 127, int32 for
    131 <= p <= 32749 and int64 above."""
    return _narrowest(2 * (p - 1) ** 2 + p)


def _budget(p: int, dtype: np.dtype) -> int:
    """Updates x -= f * row (f, row residues, so each subtracts at most
    (p - 1)**2) that an array of residues of ``dtype`` takes without leaving
    it, less one for margin: at least 1 in ``_width(p)``."""
    return (_TOP[dtype] - p) // (p - 1) ** 2 - 1


def _update(x: np.ndarray, rows: np.ndarray, f: np.ndarray, row: np.ndarray, p: int, pending: int) -> int:
    """In place, x[rows[i]] -= f[i] * row for every i; returns the new ``pending``.

    ``f`` and ``row`` are residues; every entry of ``x`` has taken at most
    ``pending`` unreduced updates since it was last a residue.  The one
    overflow rule: when this update brings that count to
    ``_budget(p, x.dtype)``, the next could overflow, so x is reduced mod p
    (only the written block when no other update was pending) and the count
    restarts at 0.
    """
    if pending + 1 < _budget(p, x.dtype):
        x[rows] -= f[:, None] * row
        return pending + 1
    if pending:
        x[rows] -= f[:, None] * row
        np.remainder(x, p, out=x)
    else:
        x[rows] = (x[rows] - f[:, None] * row) % p
    return 0


def _echelon(a: np.ndarray, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a copy of ``a`` mod p, in ``_width(p)``.

    Deterministic pivoting: columns scanned left to right, pivot is the first
    nonzero entry at or below the current row.  ``reduced`` eliminates above
    the pivots as well (RREF); otherwise only below (enough for ranks and for
    ``_reduce_rows``).  Either way pivot rows lead with 1.  Once the pivot
    row of column c sits at row r it is zero mod p before c (each earlier
    column was a pivot column, cleared below its row, or had no nonzero at
    or below it), so reading it, scaling it and every update touch only the
    columns from c on, which are the only ones read later.  What an unreduced
    update left before them is reduced once at the end.
    """
    p = int(p)  # an exact int is a weak scalar to NumPy 2; a Prime would promote to int64
    R = a.astype(_width(p))
    m, n = R.shape
    pivots: list[int] = []
    r = pending = 0
    dirty = False
    for c in range(n):
        if r == m:
            break
        base = 0 if reduced else r  # the rows this column's update may touch
        col = R[base:, c] if not pending else R[base:, c] % p
        nz = np.nonzero(col)[0]
        j = int(np.searchsorted(nz, r)) if reduced else 0
        if j == nz.size:
            continue
        lead = int(nz[j])
        rows = nz[nz != lead] if j else nz[1:]
        f = col[rows]
        inv = pow(int(col[lead]), p - 2, p)
        if base + lead != r:
            R[[r, base + lead]] = R[[base + lead, r]]
        if pending:
            R[r, c:] %= p
        if inv != 1:
            R[r, c:] = R[r, c:] * inv % p
        if rows.size:
            pending = _update(R[base:, c:], rows, f, R[r, c:], p, pending)
            dirty = dirty or pending > 0  # some entry may now be unreduced
        pivots.append(c)
        r += 1
    if dirty:
        np.remainder(R, p, out=R)
    return R, pivots


def rank(m: FpMatrix) -> int:
    """Rank of the matrix over F_p."""
    return len(_echelon(m.entries, m.p, reduced=False)[1])


def rref(m: FpMatrix) -> tuple[FpMatrix, list[int]]:
    """Reduced row echelon form and its pivot columns."""
    R, piv = _echelon(m.entries, m.p, reduced=True)
    return FpMatrix(R, m.p), piv


def kernel_basis(m: FpMatrix) -> list[np.ndarray]:
    """Canonical basis of the right kernel {v : m @ v = 0 mod p}.

    One vector per free column of the RREF, in increasing column order; the
    free coordinate is set to 1 and the pivot coordinates back-substituted.
    Exactly cols - rank vectors are returned, in int64.
    """
    return list(_kernel(m)[0].astype(np.int64))


def _kernel(m: FpMatrix) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``kernel_basis`` stacked in ``_width(p)``, its free columns and m's RREF pivots.
    The basis is the identity on the free columns: an echelon basis on them for
    ``_reduce_rows``."""
    R, piv = _echelon(m.entries, m.p, reduced=True)
    free = np.delete(np.arange(m.cols), piv)  # drops the pivots through a boolean mask, no sort
    k = np.zeros((free.size, m.cols), dtype=R.dtype)
    k[np.arange(free.size), free] = 1
    k[:, piv] = (-R[:len(piv)][:, free].T) % int(m.p)
    return k, free, piv


def solve(m: FpMatrix, b) -> np.ndarray | None:
    """One solution of m @ x = b, or None if the system is inconsistent.

    The returned solution is canonical: free variables are set to 0.
    """
    rhs = np.mod(np.asarray(b, dtype=np.int64).reshape(-1, 1), m.p)
    if rhs.shape[0] != m.rows:
        raise ValueError(f"rhs length {rhs.shape[0]} != rows {m.rows}")
    aug = np.concatenate([m.entries, rhs], axis=1)
    R, piv = _echelon(aug, m.p, reduced=True)
    if piv and piv[-1] == m.cols:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    for k, c in enumerate(piv):
        x[c] = R[k, m.cols]
    return x


def check_block(rows: int, cols: int, where: str) -> int:
    """Refuse an R x C block, before anything is allocated for it, with
    BudgetExceeded naming ``where`` when 8 (5RC + 7C^2) > BLOCK_CAP; returns it.

    That bounds the bytes held at once while the block is eliminated with
    representatives (the ranks-only path holds less), counting every array as
    int64: an upper bound, as the eliminated arrays are in ``_width(p)``.  With
    K = dim ker <= C and B <= K incoming boundaries (B x C): the block and its
    ``FpMatrix`` copy take 2RC; ``_echelon`` adds its copy and up to 3RC of
    ``_update`` temporaries (gathered rows, f * row, their difference).  Then
    the block, its R x rank image columns, the kernel basis (KC), the
    boundaries and their RREF (2BC), ``_reduce_rows``' copy of the basis (KC),
    the representatives ((K - B)C) and 3KC of temporaries fit in 2RC + 7C^2.
    """
    need = 8 * (5 * rows * cols + 7 * cols * cols)
    if need > BLOCK_CAP:
        raise BudgetExceeded(f"{where}: a dense {rows} x {cols} block needs up to {need} bytes; capped at {BLOCK_CAP}")
    return need


def _reduce_rows(w: np.ndarray, basis: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Reduce every row of residues ``w`` in place against an echelon ``basis``; returns ``w``.

    ``basis`` row k is 1 in column ``pivots[k]`` and 0 in the pivot columns of
    every earlier row, as the ascending loop needs: an echelon form with
    leading 1s (reduced or not), or a kernel basis on its free columns.  Each
    row ends zero on ``pivots``, and zero exactly when it lies in the row
    space; for an RREF basis it is the normal form defined in
    ``quotient_representatives``.  One vectorised step per pivot, in ``w``'s
    dtype: callers allocate w in ``_width(p)`` (a wider w is exact too, as
    ``_update`` reads the budget of the array it writes).
    """
    p = int(p)
    pending = 0
    for k, c in enumerate(pivots):
        f = w[:, c] if not pending else w[:, c] % p
        rows = np.nonzero(f)[0]
        if rows.size:
            pending = _update(w, rows, f[rows], basis[k], p, pending)
    if pending:
        np.remainder(w, p, out=w)
    return w


def quotient_representatives(cycles, boundaries, p) -> list[np.ndarray]:
    """Vectors completing span(boundaries) to span(cycles).

    Requires span(boundaries) <= span(cycles); raises BoundaryNotCycle, naming
    the first boundary outside, otherwise.  Exactly dim span(cycles) -
    dim span(boundaries) vectors come back.

    The normal form of v modulo a subspace S is the unique vector of v + S
    that is zero on the pivot columns of the RREF of S.  Representative i is
    the normal form of cycle i modulo span(boundaries, cycles 0..i-1), kept
    (not rescaled) when nonzero.  All cycles are reduced modulo the boundaries
    in one batched pass; one forward pass over them then clears each
    representative's lead column from the cycles after it.  The vectors come
    back in int64.
    """
    p = as_prime(p)
    cyc_rows = [np.asarray(v, dtype=np.int64) for v in cycles]
    rows = cyc_rows + [np.asarray(v, dtype=np.int64) for v in boundaries]
    lengths = {v.shape[0] for v in rows}
    if len(lengths) > 1:
        raise ValueError(f"mixed vector lengths {sorted(lengths)}")
    if not rows:
        return []
    a = np.stack(rows)
    np.mod(a, p, out=a)
    cyc, bnd = a[:len(cyc_rows)], a[len(cyc_rows):]
    return [rep.astype(np.int64) for _, rep in _quotient_pairs(cyc, *_echelon(cyc, p, reduced=False), bnd, p)[0]]


def _quotient_pairs(cyc, cyc_echelon, cyc_pivots, bnd, p):
    """``quotient_representatives`` on residue arrays, given an echelon basis of
    span(cyc) for ``_reduce_rows`` (a kernel basis and its free columns will do).
    Returns [(cycle index, representative)] and the boundaries' RREF rows and
    pivots, all in ``_width(p)``."""
    p = int(p)
    bnd_rref, bnd_pivots = _echelon(bnd, p, reduced=True)
    w = _reduce_rows(cyc.astype(bnd_rref.dtype), bnd_rref, bnd_pivots, p)
    reps: list[tuple[int, np.ndarray]] = []
    pending = 0
    for i in range(len(w)):
        rep = w[i] if not pending else w[i] % p
        nz = np.nonzero(rep)[0]
        if nz.size == 0:
            continue
        if not pending:
            rep = rep.copy()
        reps.append((i, rep))
        c = int(nz[0])
        col = w[i + 1:, c] if not pending else w[i + 1:, c] % p
        below = np.nonzero(col)[0]
        if below.size:
            f = col[below] * pow(int(rep[c]), p - 2, p) % p
            pending = _update(w[i + 1:], below, f, rep, p, pending)

    # dim(span(boundaries) + span(cycles)) = len(bnd_pivots) + len(reps); it
    # equals dim span(cycles) exactly when every boundary is a cycle.
    if len(bnd_pivots) + len(reps) != len(cyc_pivots):
        outside = _reduce_rows(bnd, cyc_echelon, cyc_pivots, p).any(axis=1)
        raise BoundaryNotCycle(f"boundary {int(np.nonzero(outside)[0][0])} is not in the span of the cycles")
    return reps, bnd_rref[:len(bnd_pivots)], bnd_pivots
