"""Shared builders for randomized complexes used across the test modules, and
reference implementations that the fast kernels must agree with exactly."""

import warnings

import numpy as np

from frattini import Ambient, DependentQuadratics, ExtElement, KoszulComplex
from frattini.extalg import _basis_bits
from frattini.fplin import BoundaryNotCycle, rref


def random_quadratic(rng, w, p):
    amb = Ambient(w, 0, p)
    terms = {}
    for eb, _ in _basis_bits(w, 0, 2):
        c = rng.randrange(p)
        if c:
            terms[(eb, 0)] = c
    return ExtElement(amb, terms)


def random_complex(rng, *, w_max=5, r_max=4, primes=(3, 5, 7), independent_only=False):
    """A random Koszul complex; None when independence is required but missed."""
    w = rng.randint(1 if independent_only else 0, w_max)
    r = rng.randint(0, min(r_max, w * (w - 1) // 2))
    p = rng.choice(primes)
    quads = [random_quadratic(rng, w, p) for _ in range(r)]
    try:
        return KoszulComplex(w, p, quads)
    except DependentQuadratics:
        if independent_only:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return KoszulComplex(w, p, quads, force=True)


def random_element(rng, ambient, degree=None, density=0.5):
    """Random element; homogeneous of the given degree when one is passed."""
    degrees = [degree] if degree is not None else range(ambient.w + ambient.r + 1)
    terms = {}
    for d in degrees:
        for eb, xb in _basis_bits(ambient.w, ambient.r, d):
            if rng.random() < density:
                c = rng.randrange(1, ambient.p)
                terms[(eb, xb)] = c
    return ExtElement(ambient, terms)


class _Echelon:
    """Incremental echelon basis: the reference for span membership and reduction."""

    def __init__(self, p):
        self.p = p
        self.rows = []   # each with leading coefficient 1
        self.lead = []   # pivot column per row, in insertion order

    def reduce(self, v):
        w = np.mod(v, self.p)
        for row, c in zip(self.rows, self.lead):
            f = int(w[c])
            if f:
                w = (w - f * row) % self.p
        return w

    def add(self, v):
        """Reduce v against the basis and absorb the remainder."""
        w = self.reduce(v)
        nz = np.nonzero(w)[0]
        if nz.size:
            c = int(nz[0])
            self.rows.append(w * pow(int(w[c]), self.p - 2, self.p) % self.p)
            self.lead.append(c)


def reference_quotient_representatives(cycles, boundaries, p):
    """``fplin.quotient_representatives`` computed one vector at a time.

    Each cycle in turn is reduced against a growing echelon basis of the
    boundaries and the earlier representatives; a nonzero remainder is kept.
    """
    cyc = [np.mod(np.asarray(v, dtype=np.int64), p) for v in cycles]
    bnd = [np.mod(np.asarray(v, dtype=np.int64), p) for v in boundaries]
    cyc_span = _Echelon(p)
    for v in cyc:
        cyc_span.add(v)
    bnd_span = _Echelon(p)
    for i, v in enumerate(bnd):
        if cyc_span.reduce(v).any():
            raise BoundaryNotCycle(f"boundary {i} is not in the span of the cycles")
        bnd_span.add(v)
    reps = []
    for v in cyc:
        w = bnd_span.reduce(v)
        if w.any():
            reps.append(w)
            bnd_span.add(w)
    return reps


def reference_kernel_basis(m):
    """``fplin.kernel_basis`` back-substituted one coordinate at a time."""
    red, piv = rref(m)
    out = []
    for f in range(m.cols):
        if f in piv:
            continue
        v = np.zeros(m.cols, dtype=np.int64)
        v[f] = 1
        for k, c in enumerate(piv):
            v[c] = (-int(red.entries[k, f])) % m.p
        out.append(v)
    return out
