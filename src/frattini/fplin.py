"""Exact dense linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Since the
modulus is capped below 2**31, every product of two residues fits in int64
and no intermediate value ever overflows.  All pivoting is deterministic
(first nonzero entry, columns scanned left to right), so kernel bases and
quotient representatives are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Prime",
    "FpMatrix",
    "BoundaryNotCycle",
    "rank",
    "kernel_basis",
    "quotient_representatives",
    "rref",
    "solve",
]

_MODULUS_CAP = 1 << 31


class BoundaryNotCycle(ValueError):
    """A claimed boundary vector lies outside the span of the cycles."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Prime(int):
    """An odd prime below 2**31, validated by trial division."""

    def __new__(cls, value: int) -> "Prime":
        v = int(value)
        if v >= _MODULUS_CAP:
            raise ValueError(f"modulus {v} exceeds the 2**31 cap")
        if v < 3 or v % 2 == 0 or not _is_prime(v):
            raise ValueError(f"{v} is not an odd prime")
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


def _subtract_multiples(x: np.ndarray, rows: np.ndarray, f: np.ndarray, row: np.ndarray, p: int) -> None:
    """In place, x[rows[i]] -= f[i] * row mod p for every i.

    Every entry is a residue below 2**31, so each product is below 2**62 and
    fits in int64.  Nothing sums products (no ``@``, ``dot`` or ``einsum``):
    near p = 2**31 such a sum overflows int64.
    """
    x[rows] = (x[rows] - np.outer(f, row)) % p


def _echelon(a: np.ndarray, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a copy of ``a`` mod p.

    Deterministic pivoting: columns scanned left to right, pivot is the first
    nonzero entry at or below the current row.  ``reduced`` eliminates above
    the pivots as well (RREF); otherwise only below (enough for ranks).
    """
    R = a.copy()
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        if inv != 1:
            R[r] = R[r] * inv % p
        if reduced:
            rows = np.nonzero(R[:, c])[0]
            rows = rows[rows != r]
        else:
            rows = r + 1 + np.nonzero(R[r + 1:, c])[0]
        if rows.size:
            _subtract_multiples(R, rows, R[rows, c], R[r], p)
        pivots.append(c)
        r += 1
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
    Exactly cols - rank vectors are returned.
    """
    R, piv = _echelon(m.entries, m.p, reduced=True)
    free = np.setdiff1d(np.arange(m.cols), piv)
    k = np.zeros((free.size, m.cols), dtype=np.int64)
    k[np.arange(free.size), free] = 1
    k[:, piv] = (-R[:len(piv)][:, free].T) % m.p
    return list(k)


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


def _reduce_rows(w: np.ndarray, basis: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Reduce every row of ``w`` in place against an echelon ``basis``; returns ``w``.

    ``basis`` row k has a leading 1 in column ``pivots[k]``, the pivots
    increasing.  Each row ends zero on ``pivots``, and zero exactly when it lies
    in the row space; for an RREF basis it is the normal form defined in
    ``quotient_representatives``.  One vectorised step per pivot.
    """
    for k, c in enumerate(pivots):
        f = w[:, c]
        rows = np.nonzero(f)[0]
        if rows.size:
            _subtract_multiples(w, rows, f[rows], basis[k], p)
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
    representative's lead column from the cycles after it.
    """
    return [rep for _, rep in _quotient_pairs(cycles, boundaries, p)]


def _quotient_pairs(cycles, boundaries, p) -> list[tuple[int, np.ndarray]]:
    """``quotient_representatives``, each vector paired with the index of its cycle."""
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
    k = len(cyc_rows)
    cyc, bnd = a[:k], a[k:]

    cyc_echelon, cyc_pivots = _echelon(cyc, p, reduced=False)
    bnd_rref, bnd_pivots = _echelon(bnd, p, reduced=True)
    w = _reduce_rows(cyc, bnd_rref, bnd_pivots, p)
    reps: list[tuple[int, np.ndarray]] = []
    for i in range(k):
        nz = np.nonzero(w[i])[0]
        if nz.size == 0:
            continue
        rep = w[i].copy()
        reps.append((i, rep))
        c = int(nz[0])
        below = i + 1 + np.nonzero(w[i + 1:, c])[0]
        if below.size:
            f = w[below, c] * pow(int(rep[c]), p - 2, p) % p
            _subtract_multiples(w, below, f, rep, p)

    # dim(span(boundaries) + span(cycles)) = len(bnd_pivots) + len(reps); it
    # equals dim span(cycles) exactly when every boundary is a cycle.
    if len(bnd_pivots) + len(reps) != len(cyc_pivots):
        outside = _reduce_rows(bnd, cyc_echelon, cyc_pivots, p).any(axis=1)
        raise BoundaryNotCycle(f"boundary {int(np.nonzero(outside)[0][0])} is not in the span of the cycles")
    return reps
