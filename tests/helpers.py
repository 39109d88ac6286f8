"""Shared builders for randomized complexes used across the test modules, and
reference implementations that the fast kernels must agree with exactly."""

import warnings
from itertools import combinations

import numpy as np

from frattini import Ambient, DependentQuadratics, ExtElement, KoszulComplex, differential_matrix, fplin
from frattini.bocksteindga import _mul_term_dicts
from frattini.extalg import _basis_bits
from frattini.fplin import BoundaryNotCycle, FpMatrix, kernel_basis, quotient_representatives, solve
from frattini.koszul import _block_matrix, _graded_basis, _grading
from frattini.pgroups import ConstraintViolation, VerificationReport


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


def reference_rref(m):
    """``fplin.rref`` by Gauss-Jordan on Python integers, one entry at a time:
    (the RREF's rows as lists, pivot columns)."""
    p = int(m.p)
    rows = [[int(x) for x in row] for row in m.entries]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for k, row in enumerate(rows):
            if k != r and row[c]:
                rows[k] = [(x - row[c] * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_kernel_basis(m):
    """``fplin.kernel_basis`` back-substituted one coordinate at a time."""
    red, piv = reference_rref(m)
    out = []
    for f in range(m.cols):
        if f in piv:
            continue
        v = np.zeros(m.cols, dtype=np.int64)
        v[f] = 1
        for k, c in enumerate(piv):
            v[c] = (-red[k][f]) % m.p
        out.append(v)
    return out


def reference_betti(c):
    """The dense representative ``betti``: each degree's full matrix, reduced
    one degree after another.  Returns (dims, representatives by degree,
    matrices), the matrices being what ``reference_class_from_cocycle`` needs."""
    top = c.top_degree
    mats = [differential_matrix(c, d) for d in range(top + 1)]
    dims = []
    reps_by_degree = []
    prev_rank = 0
    for d in range(top + 1):
        ker = kernel_basis(mats[d])
        bnd = list(mats[d - 1].entries.T) if d > 0 else []
        reps = quotient_representatives(ker, bnd, c.p)
        dims.append(len(ker) - prev_rank)
        prev_rank = mats[d].cols - len(ker)
        keys = _basis_bits(c.w, c.r, d)
        reps_by_degree.append(
            tuple(ExtElement(c.ambient, {keys[i]: int(v[i]) for i in np.nonzero(v)[0]}) for v in reps)
        )
    return tuple(dims), tuple(reps_by_degree), mats


def reference_block_dims(c):
    """Betti numbers from the rank of every (degree, grade) block of ``_grading``:
    the all-blocks walk, with no orbit reduction."""
    grade = _grading(c)
    top = c.top_degree
    ranks = []
    for d in range(top + 1):
        dom, cod = _graded_basis(c, d, grade), _graded_basis(c, d + 1, grade)
        ranks.append(sum(fplin.rank(_block_matrix(c, keys, cod[g])) for g, keys in dom.items() if g in cod))
    sizes = [len(_basis_bits(c.w, c.r, d)) for d in range(top + 1)]
    return tuple(sizes[d] - ranks[d] - (ranks[d - 1] if d else 0) for d in range(top + 1))


def reference_merge_sign(a, b):
    """Sign of sorting the concatenation of disjoint masks a, b, one bit of b at a time."""
    sign = 0
    m = b
    while m:
        low = m & -m
        j = low.bit_length() - 1
        sign ^= (a >> (j + 1)).bit_count() & 1
        m ^= low
    return -1 if sign else 1


def reference_class_from_cocycle(c, reps_by_degree, mats, elem):
    """The dense ``BettiTable.class_from_cocycle``: the representative of a
    nonzero homogeneous cocycle's class, from one solve against
    [representatives | the whole boundary matrix of its degree]."""
    d = elem.degree()
    keys = _basis_bits(c.w, c.r, d)
    index = {k: i for i, k in enumerate(keys)}
    vec = np.zeros(len(keys), dtype=np.int64)
    for key, coeff in elem._terms.items():
        vec[index[key]] = coeff
    reps = reps_by_degree[d]
    rmat = np.zeros((len(keys), len(reps)), dtype=np.int64)
    for j, r in enumerate(reps):
        for key, coeff in r._terms.items():
            rmat[index[key], j] = coeff
    bmat = mats[d - 1].entries if d > 0 else np.zeros((len(keys), 0), dtype=np.int64)
    sol = solve(FpMatrix(np.concatenate([rmat, bmat], axis=1), c.p), vec)
    assert sol is not None, "not a cocycle"
    out = c.ambient.zero()
    for j, r in enumerate(reps):
        out = out + int(sol[j]) * r
    return out


def _bracket_table(group):
    return np.mod(np.array(group.algebra.bracket, dtype=np.int64), group.p)


def reference_mult_rows(group, a, b):
    """``PGroup._mult_rows`` as a dense einsum over all n'^3 structure constants."""
    br = np.einsum("...i,...j,ijk->...k", a % group.p, b % group.p, _bracket_table(group)) % group.p
    return ((a + b) % group.q + group.p * br) % group.q


def reference_mult_rows_outer(group, a, b):
    """All pairwise products of rows of a (m, n) and b (k, n) as (m, k, n)."""
    tb = np.einsum("ijk,bj->bik", _bracket_table(group), b % group.p)
    br = np.einsum("ai,bik->abk", a % group.p, tb) % group.p
    return ((a[:, None, :] + b[None, :, :]) % group.q + group.p * br) % group.q


def reference_module_log_order(rows, p):
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


def reference_member_rows(group, rows):
    """``PGroup._member_rows`` by one outer-product step per basis row of S."""
    if not group.constrained:
        return np.ones(rows.shape[0], dtype=bool)
    red = np.mod(rows, group.p)
    for basis_row in group._s_basis:
        c = int(np.nonzero(basis_row)[0][0])
        red = (red - np.outer(red[:, c], basis_row)) % group.p
    return ~red.any(axis=1)


def reference_subgroup_ranks(group):
    """``PGroup._subgroup_ranks`` one element at a time: each commutator
    a b a^-1 b^-1 and each p-th power (square-and-multiply) of the module
    generators is a chain of one-row products by ``reference_mult_rows``, whose
    operands must reduce into S; the orders come from
    ``reference_module_log_order``."""
    p, q, n = int(group.p), group.q, group.algebra.gen_count

    def mul(x, y):
        if not (reference_member_rows(group, x).all() and reference_member_rows(group, y).all()):
            raise ConstraintViolation("operands must satisfy the constraint")
        return reference_mult_rows(group, x, y)

    gens = [row.reshape(1, -1) for row in group._module_generators() % q]
    comms = [mul(mul(mul(a, b), (-a) % q), (-b) % q) for a, b in combinations(gens, 2)]
    powers = []
    for g in gens:
        acc, base, k = np.zeros_like(g), g, p
        while k:
            if k & 1:
                acc = mul(acc, base)
            base = mul(base, base)
            k >>= 1
        powers.append(acc)
    comm_rows = np.concatenate(comms) if comms else np.zeros((0, n), dtype=np.int64)
    frat_log = reference_module_log_order(np.concatenate([comm_rows, *powers]), p)
    if any((g % p).any() for g in gens):
        exponent = q
    else:
        exponent = p if group.order > 1 else 1
    return frat_log, reference_module_log_order(comm_rows, p), exponent


def reference_exhaustive_report(group):
    """``group.verify(mode="exhaustive")`` for order^3 <= 1e8, one z at a time.

    For each z the products (x y) z and x (y z) are formed for all pairs
    (x, y) and compared; order-p elements are checked one at a time against
    every element.
    """
    p, q, n = int(group.p), group.q, group.algebra.gen_count
    E = group._enumerate_rows(group.order)
    zero = np.zeros((1, n), dtype=np.int64)
    ident_ok = (
        np.array_equal(reference_mult_rows(group, E, zero), E)
        and np.array_equal(reference_mult_rows(group, zero, E), E)
        and not reference_mult_rows(group, E, (-E) % q).any()
    )
    P = reference_mult_rows_outer(group, E, E).reshape(-1, n)
    assoc_ok = True
    for z in E:
        zrow = z.reshape(1, -1)
        yz = reference_mult_rows_outer(group, E, zrow)[:, 0, :]
        lhs = reference_mult_rows_outer(group, P, zrow)[:, 0, :]
        rhs = reference_mult_rows_outer(group, E, yz).reshape(-1, n)
        if not np.array_equal(lhs, rhs):
            assoc_ok = False
            break
    omegas = E[~((p * E) % q).any(axis=1)]
    pc_ok, pc_pairs = True, 0
    for w in omegas:
        wrow = w.reshape(1, -1)
        if not np.array_equal(reference_mult_rows(group, wrow, E), reference_mult_rows(group, E, wrow)):
            pc_ok = False
            break
        pc_pairs += len(E)
    frat_log, comm_rank, exponent = reference_subgroup_ranks(group)
    return VerificationReport(
        group_order=group.order,
        mode="exhaustive",
        associativity_ok=assoc_ok,
        associativity_exhaustive=True,
        associativity_triples=group.order ** 3,
        identity_inverse_ok=bool(ident_ok),
        pc_ok=pc_ok,
        pc_pairs=pc_pairs,
        omega1_rank=next(r for r in range(n + 1) if p ** r == len(omegas)),
        abelianization_rank=n + group.s_dim - frat_log,
        commutator_rank=comm_rank,
        exponent=exponent,
        seed=0,
    )


def _beta_ext_gen(amb, g):
    if g < amb.n:
        return {}
    i, j = amb.pairs[g - amb.n]
    return {((1 << (i - 1)) | (1 << (j - 1)), amb._zero_exps()): -1}


def _beta_pol_gen(amb, g):
    if g < amb.n:
        return {}
    i, j = amb.pairs[g - amb.n]
    ei = list(amb._zero_exps())
    ei[i - 1] = 1
    ej = list(amb._zero_exps())
    ej[j - 1] = 1
    return {(1 << (j - 1), tuple(ei)): 1, (1 << (i - 1), tuple(ej)): -1}


def _acc(into, d, scale=1):
    for k, c in d.items():
        into[k] = into.get(k, 0) + scale * c


def reference_beta_term(amb, mask, exps):
    """``bocksteindga``'s Bockstein of one monomial x_S z^E by the derivation
    recursion: split off the lowest factor and apply Leibniz.  Coefficients are
    integers, not yet reduced mod p."""
    if mask:
        low = mask & -mask
        g = low.bit_length() - 1
        rest = {(mask ^ low, exps): 1}
        out = _mul_term_dicts(_beta_ext_gen(amb, g), rest)
        # x_g has odd degree, so the second Leibniz summand picks up a sign
        _acc(out, _mul_term_dicts({(low, amb._zero_exps()): 1}, reference_beta_term(amb, mask ^ low, exps)), -1)
        return out
    g = next((k for k, e in enumerate(exps) if e), None)
    if g is None:
        return {}
    lowered = list(exps)
    lowered[g] -= 1
    rest = {(0, tuple(lowered)): 1}
    out = _mul_term_dicts(_beta_pol_gen(amb, g), rest)
    single = list(amb._zero_exps())
    single[g] = 1
    _acc(out, _mul_term_dicts({(0, tuple(single)): 1}, reference_beta_term(amb, 0, tuple(lowered))))
    return out
