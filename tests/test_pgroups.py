import contextlib
import io
import json
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from frattini import pgroups
from frattini.cli import EXIT_DISAGREE, main
from frattini.fplin import BudgetExceeded
from frattini.pgroups import (
    ConstraintViolation,
    PGroup,
    PGroupElement,
    TwoStepLieAlgebra,
    free_two_step,
    unp_group,
)
from helpers import (
    reference_exhaustive_report,
    reference_index_table,
    reference_member_rows,
    reference_module_log_order,
    reference_mult_rows,
    reference_mult_rows_outer,
    reference_subgroup_ranks,
    reference_table_associative,
)


def test_free_two_step_shape():
    alg = free_two_step(2)
    assert alg.gen_count == 3
    assert alg.bracket == (((0, 1), ((2, 1),)),)  # [b_1, b_2] = b_3
    assert alg.central == frozenset({2})
    alg = free_two_step(3)
    assert alg.gen_count == 6
    assert alg.bracket == (((0, 1), ((3, 1),)), ((0, 2), ((4, 1),)), ((1, 2), ((5, 1),)))


# Each breaks exactly one rule, so dropping any one check fails this list.
_INVALID_ALGEBRAS = [
    (3, {(1, 0): {2: 1}}, {2}),  # key with i > j: only i < j is stored
    (3, {(0, 0): {2: 1}}, {2}),  # diagonal key
    (3, {(0, 3): {2: 1}}, {2}),  # key out of range
    (3, {(-1, 0): {2: 1}}, {2}),  # negative key
    (3, {(0, 1): {0: 1}}, {2}),  # bracket value escapes the center
    (2, {(0, 1): {1: 1}}, {1}),  # central generator used as an argument
    (3, {}, {3}),  # central index out of range
    (0, {}, set()),  # no generators
    (-1, {}, set()),  # negative generator count
]


def test_lie_algebra_validation():
    for gens, bracket, central in _INVALID_ALGEBRAS:
        with pytest.raises(ValueError):
            TwoStepLieAlgebra(gens, bracket, frozenset(central))


def test_lie_algebra_stores_nonzero_brackets_sorted():
    abelian = TwoStepLieAlgebra(2, {}, frozenset({1}))
    assert abelian.gen_count == 2 and abelian.bracket == ()
    # zero brackets vanish, so even a central argument is allowed there
    assert TwoStepLieAlgebra(3, {(0, 2): {2: 0}, (1, 2): {}}, frozenset({2})).bracket == ()
    a = TwoStepLieAlgebra(5, {(1, 2): {4: -1}, (0, 1): {4: 2, 3: 1}}, frozenset({3, 4}))
    b = TwoStepLieAlgebra(5, [((0, 1), [(4, 2), (3, 1)]), ((1, 2), {4: -1})], frozenset({4, 3}))
    assert a.bracket == (((0, 1), ((3, 1), (4, 2))), ((1, 2), ((4, -1),)))
    assert a == b and hash(a) == hash(b)
    assert TwoStepLieAlgebra(a.gen_count, a.bracket, a.central) == a


def test_unp_group_multiplication_golden():
    g = unp_group(2, 3)
    assert g.order == 243
    x = g.element((1, 0, 0))
    y = g.element((0, 1, 0))
    assert g.multiply(x, y).coords == (1, 1, 3)
    assert g.multiply(y, x).coords == (1, 1, 6)
    assert g.multiply(x, g.inverse(x)) == g.identity()


def test_orders_and_powers():
    g = unp_group(2, 3)
    x = g.element((1, 0, 0))
    assert g.order_of(x) == 9
    assert g.order_of(g.element((3, 0, 0))) == 3
    assert g.order_of(g.identity()) == 1
    assert g.power(x, 9) == g.identity()
    assert g.power(x, 3) == g.element((3, 0, 0))
    assert g.power(x, -1) == g.inverse(x)
    # binary power agrees with iterated multiplication
    acc = g.identity()
    for _ in range(5):
        acc = g.multiply(acc, x)
    assert g.power(x, 5) == acc


def test_power_is_p_scaling():
    g = PGroup(free_two_step(2), 5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        coords = tuple(int(c) for c in rng.integers(0, 25, size=3))
        x = g.element(coords)
        assert g.power(x, 5).coords == tuple((5 * c) % 25 for c in coords)


def test_constraint_membership():
    g = unp_group(2, 3)
    with pytest.raises(ConstraintViolation):
        g.element((0, 0, 1))
    assert g.element((0, 0, 3)).coords == (0, 0, 3)  # p-multiples always belong
    assert g.contains(PGroupElement((1, 2, 6)))
    assert not g.contains(PGroupElement((1, 2, 1)))
    with pytest.raises(ConstraintViolation):
        g.multiply(PGroupElement((0, 0, 1)), g.identity())


def test_constraint_is_a_set_of_coordinates():
    g = PGroup(free_two_step(3), 5, constraint=np.array([5, 0, 5]))
    assert g._s.tolist() == [0, 5] and g._off.tolist() == [1, 2, 3, 4]
    assert g.s_dim == 2 and g.order == 5 ** 8 and g.constrained
    assert g.contains(PGroupElement((4, 5, 10, 0, 15, 3)))
    assert not g.contains(PGroupElement((4, 5, 10, 1, 15, 3)))
    assert PGroup(free_two_step(3), 5, constraint=()).order == 5 ** 6


@pytest.mark.parametrize(
    "constraint",
    [
        [0, 1.0],  # not an integer
        [True, 2],  # a bool is not an index
        ["1"],
        [0, 6],  # outside range(6)
        [-1],
        np.eye(6, dtype=np.int64)[:3],  # rows spanning S, no longer accepted
        [[1, 0, 0, 0, 0, 0]],
    ],
)
def test_constraint_rejects_non_coordinates(constraint):
    with pytest.raises(ValueError, match=r"range\(6\)"):
        PGroup(free_two_step(3), 5, constraint=constraint)


def test_elements_enumeration():
    g = unp_group(2, 3)
    elems = g.elements()
    assert len(elems) == g.order == 243
    assert len(set(elems)) == 243
    assert all(g.contains(e) for e in elems[:20])
    with pytest.raises(BudgetExceeded):
        unp_group(3, 7).elements(budget=100)


def test_verify_exhaustive_golden_report():
    g = unp_group(2, 3)
    rep = g.verify()
    assert rep.group_order == 243
    assert rep.mode == "exhaustive"
    assert rep.associativity_ok and rep.associativity_exhaustive
    assert rep.associativity_triples == 243**3
    assert rep.identity_inverse_ok
    assert rep.pc_ok
    assert rep.omega1_rank == 3
    assert rep.abelianization_rank == 2
    assert rep.commutator_rank == 1
    assert rep.exponent == 9


def test_order_p_elements_all_central():
    g = unp_group(2, 3)
    elems = g.elements()
    omegas = [e for e in elems if g.order_of(e) in (1, 3)]
    assert len(omegas) == 27
    for om in omegas[:5]:
        for e in elems[::17]:
            assert g.multiply(om, e) == g.multiply(e, om)


def test_abelian_case():
    g = unp_group(1, 3)
    assert g.order == 9
    rep = g.verify()
    assert rep.commutator_rank == 0
    assert rep.abelianization_rank == 1
    assert rep.omega1_rank == 1
    assert rep.exponent == 9
    assert rep.pc_ok


def test_free_group_sampled_mode():
    g = PGroup(free_two_step(2), 5)
    assert g.order == 5**6
    assert not g.constrained
    rep = g.verify(mode="sampled", seed=11, triples=2000)
    assert rep.mode == "sampled"
    assert rep.associativity_ok and not rep.associativity_exhaustive
    assert rep.identity_inverse_ok and rep.pc_ok
    assert rep.omega1_rank == 3
    assert rep.abelianization_rank == 3
    assert rep.commutator_rank == 1
    assert rep.exponent == 25


def test_verify_budget_and_modes():
    g = unp_group(2, 5)  # order 5^5 = 3125
    with pytest.raises(BudgetExceeded):
        g.verify(mode="exhaustive", budget=1000)
    rep = g.verify(mode="auto", budget=1000, triples=500, seed=2)
    assert rep.mode == "sampled"
    with pytest.raises(ValueError):
        g.verify(mode="nonsense")


def test_sampled_determinism():
    g = PGroup(free_two_step(3), 7)
    r1 = g.verify(mode="sampled", seed=5)
    r2 = g.verify(mode="sampled", seed=5)
    assert r1 == r2


def test_prime_cap():
    with pytest.raises(ValueError):
        PGroup(free_two_step(2), 46349)


@pytest.mark.parametrize("p", [3, 46337])
def test_bracket_bound_edge(p):
    edge = ((1 << 63) - 1) // (p - 1) ** 3  # largest count with count * (p-1)^3 < 2^63
    pgroups._check_bracket_bound(edge, p)
    with pytest.raises(ValueError, match="overflow"):
        pgroups._check_bracket_bound(edge + 1, p)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_built_in_algebras_within_bracket_bound(n):
    pairs_per_coordinate = Counter(k for _, vec in free_two_step(n).bracket for k, _ in vec)
    assert max(pairs_per_coordinate.values(), default=0) <= 1
    PGroup(free_two_step(n), 46337)
    unp_group(n, 46337)


def test_bracket_bound_enforced_at_construction(monkeypatch):
    checked = []
    monkeypatch.setattr(
        pgroups, "_check_bracket_bound", lambda terms, p: checked.append((terms, p)) or np.dtype(np.int64)
    )
    PGroup(free_two_step(2), 5)  # the one pair (b_1, b_2) lands in the central coordinate
    assert checked == [(1, 5)]


def test_brackets_vanishing_mod_p_are_dropped():
    alg = TwoStepLieAlgebra(5, {(0, 1): {3: 7, 4: -3}, (0, 2): {4: 14}}, frozenset({3, 4}))
    assert PGroup(alg, 7)._brackets == [(4, [(0, 1, 4)])]
    assert PGroup(alg, 3)._brackets == [(3, [(0, 1, 1)]), (4, [(0, 2, 2)])]


def test_unp_group_at_n_64_constructs():
    g = unp_group(64, 7)  # n' = 2080: a dense bracket table would hold 2080^3 entries
    assert g.algebra.gen_count == 2080 and len(g._brackets) == 2016
    assert all(len(terms) == 1 for _, terms in g._brackets)
    assert g.s_dim == 64 and g._span == 64


# The primes on both sides of each width switch: (int16, int32) then (int32, int64).
_SWITCHES = {1: ((31, 37), (1291, 1297)), 2: ((23, 29), (1021, 1031))}


def _pairs_group(pairs, p):
    """2 pairs + 1 generators: (b_1, b_2), (b_3, b_4), ... all bracket to -b_last,
    so the one central coordinate sums ``pairs`` terms, each scaled by c = p - 1,
    the largest residue."""
    last = 2 * pairs
    bracket = {(2 * t, 2 * t + 1): {last: -1} for t in range(pairs)}
    return PGroup(TwoStepLieAlgebra(last + 1, bracket, frozenset({last})), p)


@pytest.mark.parametrize("pairs", [1, 2])
def test_width_switches_where_the_bound_says(pairs):
    """int16, int32, int32, int64 at the four primes; U(n) and the free group
    have one pair per coordinate, and a second pair moves the switches down."""
    builds = [lambda p: _pairs_group(pairs, p)]
    if pairs == 1:
        builds += [lambda p: unp_group(3, p), lambda p: PGroup(free_two_step(3), p)]
    widths = [np.dtype(t) for t in (np.int16, np.int32, np.int32, np.int64)]
    primes = [p for switch in _SWITCHES[pairs] for p in switch]
    for build in builds:
        assert [build(p)._dtype for p in primes] == widths


def _extreme_operands(g, sign):
    """(a, b) whose bracket sum in the central coordinate is sign * terms * (p - 1)^3
    and whose a + b there is 2 q - 2, in ``g._dtype``."""
    p, q, n = int(g.p), g.q, g.algebra.gen_count
    a, b = np.full((n, 1), q - p, dtype=g._dtype), np.full((n, 1), q - p, dtype=g._dtype)  # residues 0
    for t in range(0, n - 1, 2):  # c (x_i y_j - x_j y_i) with c = p - 1
        x, y = (a, b) if sign > 0 else (b, a)
        x[t] = y[t + 1] = q - 1  # x_i = y_j = p - 1, x_j = 0
    a[-1] = b[-1] = q - 1
    return a, b


@pytest.mark.parametrize("pairs", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_width_is_exact_at_the_extremes(pairs, sign):
    for p in (p for switch in _SWITCHES[pairs] for p in switch):
        g = _pairs_group(pairs, p)
        a, b = _extreme_operands(g, sign)
        ra, rb = a[:-1].astype(np.int64) % p, b[:-1].astype(np.int64) % p
        assert (p - 1) * (ra[0::2] * rb[1::2] - ra[1::2] * rb[0::2]).sum() == sign * pairs * (p - 1) ** 3
        got = g._mult(a, b)
        assert got.dtype == g._dtype, p
        assert np.array_equal(got, g._mult(a.astype(np.int64), b.astype(np.int64))), p
        assert np.array_equal(_row_major(got), reference_mult_rows(g, _row_major(a), _row_major(b))), p


@pytest.mark.parametrize("p", [3, 31, 37, 1297])
@pytest.mark.parametrize("which", ["u", "g"])
def test_batches_stay_in_the_width(monkeypatch, which, p):
    """A ``Prime`` scalar is not a weak scalar to NumPy 2, so one left in the
    kernel or the draw would promote these to int64.  The kernel's in-place
    adds would cast its result back, so its residues are read too."""
    g = unp_group(2, p) if which == "u" else PGroup(free_two_step(2), p)
    x, y = (g._sample(np.random.default_rng(p), 8) for _ in range(2))
    residues = []
    mod = pgroups._mod
    monkeypatch.setattr(pgroups, "_mod", lambda a, m: residues.append(mod(a, m)) or residues[-1])
    assert x.dtype == g._dtype and g._mult(x, y).dtype == g._dtype
    assert {r.dtype for r in residues} == {g._dtype}
    assert g._module_generators().dtype == g._dtype
    if p == 3:
        assert g._enumerate(pgroups.DEFAULT_BUDGET).dtype == g._dtype
    assert g._chunk == pgroups._CHUNK_BYTES // (g._dtype.itemsize * g.algebra.gen_count)


def _dense_group(gens, central, p, constrained):
    """Dense random brackets of the non-central generators into the central ones,
    with S on as many random coordinates, central ones included, as there are
    non-central generators."""
    rng = np.random.default_rng([gens, central, p])
    free = gens - central
    bracket = {
        (i, j): dict(zip(range(free, gens), rng.integers(-2 * p, 2 * p, size=central).tolist()))
        for i, j in combinations(range(free), 2)
    }
    alg = TwoStepLieAlgebra(gens, bracket, frozenset(range(free, gens)))
    return PGroup(alg, p, constraint=rng.choice(gens, size=free, replace=False) if constrained else None)


_PRIMES = (3, 7, 46337)
_KERNEL_CASES = (
    [("free", n, p) for p in _PRIMES for n in range(1, 6)]
    + [("U", n, p) for p in _PRIMES for n in range(1, 5)]
    + [(kind, shape, p) for p in _PRIMES for shape in ((2, 1), (4, 2), (6, 3), (7, 2))
       for kind in ("dense", "dense-S")]
)


# S on the free group with n = 3 (n' = 6, _span = 3): no coordinates, coordinates
# the bracket reads mixed with ones it does not, and only ones it does not.
_FREE3_CONSTRAINTS = {
    "zero-S": [],
    "mixed-S": [4, 1, 5, 1],
    "unread-S": [3, 5],
}


def _kernel_group(kind, size, p):
    if kind == "free-S":
        return PGroup(free_two_step(3), p, constraint=_FREE3_CONSTRAINTS[size])
    if kind == "free":
        return PGroup(free_two_step(size), p)
    if kind == "U":
        return unp_group(size, p)
    return _dense_group(*size, p, constrained=kind == "dense-S")


def _operand_pairs(g):
    """The operand shapes ``verify`` passes to ``_mult``, on random coordinate-major
    residues: 40 elements as the columns of (n', 40) arrays."""
    n = g.algebra.gen_count
    rng = np.random.default_rng(g.p)
    if g.constrained:
        x, y = (g._sample(rng, 40) for _ in range(2))
    else:  # any elements of K
        x, y = (rng.integers(0, g.q, size=(n, 40)) for _ in range(2))
    zero = np.zeros((n, 1), dtype=np.int64)
    return (
        (x, y),  # sampled triples
        (x, zero), (zero, x), (x, (-x) % g.q),  # identity and inverses
        (x[:, :1], y), (y, x[:, :1]),  # one order-p candidate against all elements
        (x[:, None, :], y[:, :, None]),  # Cayley table, (n', 1, N) x (n', N, 1)
        (x[:, :, None], y[:, None, :]),  # and transposed, as verify lays it out
    )


def _row_major(a):
    """A coordinate-major (n', ...) batch as the reference's (..., n') rows."""
    return np.moveaxis(a, 0, -1)


@pytest.mark.parametrize("kind, size, p", _KERNEL_CASES)
def test_mult_rows_matches_reference(kind, size, p):
    g = _kernel_group(kind, size, p)
    for a, b in _operand_pairs(g):
        want = reference_mult_rows(g, _row_major(a), _row_major(b))
        assert np.array_equal(_row_major(g._mult(a, b)), want), (a.shape, b.shape)


@pytest.mark.parametrize("kind, size, p", _KERNEL_CASES)
def test_mult_rows_leaves_operands_unchanged(kind, size, p):
    g = _kernel_group(kind, size, p)
    for a, b in _operand_pairs(g):  # broadcast views of the same two arrays
        before = a.copy(), b.copy()
        g._mult(a, b)
        assert np.array_equal(a, before[0]) and np.array_equal(b, before[1]), (a.shape, b.shape)


@pytest.mark.parametrize("p", _PRIMES)
def test_mod_matches_np_mod(p):
    big = 2 ** 62 - 1
    for m in (p, p * p):
        x = np.array([0, 1, -1, m - 1, m, m + 1, -m, -m + 1, -m - 1, 2 * m, -2 * m, big, -big,
                      big - 1, -big + 1, 12345678901, -12345678901], dtype=np.int64)
        x = np.concatenate([x, np.random.default_rng(m).integers(-big, big, size=1000)])
        assert np.array_equal(pgroups._mod(x, m), np.mod(x, m))
        assert np.array_equal(pgroups._mod(x.reshape(-1, 1, 1), m), np.mod(x, m).reshape(-1, 1, 1))


@pytest.mark.parametrize(
    "kind, size, p", _KERNEL_CASES + [("free-S", name, p) for p in _PRIMES for name in _FREE3_CONSTRAINTS]
)
def test_subgroup_ranks_match_reference(kind, size, p):
    g = _kernel_group(kind, size, p)
    assert g._subgroup_ranks() == reference_subgroup_ranks(g)


@pytest.mark.parametrize("p", _PRIMES)
def test_pk_log_order_matches_reference(p):
    rng = np.random.default_rng(p)
    for m, n in ((0, 3), (1, 1), (1, 4), (3, 4), (4, 4), (6, 3)):
        rows = p * rng.integers(0, p, size=(m, n))
        cases = [rows, np.zeros((m, n), dtype=np.int64)]
        if m >= 2:  # append a combination of the first two rows, and a repeat
            mixed = (2 * rows[0] + (p - 1) * rows[1]) % (p * p)
            cases.append(np.concatenate([rows, [mixed], rows[:1]]))
        for case in cases:
            assert pgroups._pk_log_order(case, p) == reference_module_log_order(case, p), case


@pytest.mark.parametrize("p", _PRIMES)
def test_pk_log_order_rejects_rows_outside_pk(p):
    with pytest.raises(AssertionError):
        pgroups._pk_log_order(np.array([[p, 0], [p, 1]]), p)


@pytest.mark.parametrize("p", _PRIMES)
@pytest.mark.parametrize("shape", ((2, 1), (4, 2), (6, 3), (7, 2), *_FREE3_CONSTRAINTS))
def test_member_rows_matches_reference(shape, p):
    """On the dense groups (shape) and on the free group with n = 3 (S by name)."""
    g = _kernel_group("free-S" if isinstance(shape, str) else "dense-S", shape, p)
    rng = np.random.default_rng([p, g.algebra.gen_count, len(g.algebra.central)])
    on = g._sample(rng, 30)
    off = rng.integers(0, g.q, size=(g.algebra.gen_count, 30))
    cols = np.concatenate([on, off], axis=1)
    got = g._members(cols)
    assert np.array_equal(got, reference_member_rows(g, cols.T))
    assert got[:30].all() and not got[30:].all()


_ODD_PRIMES_TO_19 = (3, 5, 7, 11, 13, 17, 19)


def _small_random_group(seed, p):
    """A random algebra on 3 generators, one central, with S on two random
    coordinates: order p^5, so order^3 <= 1e8 at p = 3."""
    rng = np.random.default_rng(seed)
    alg = TwoStepLieAlgebra(3, {(0, 1): {2: int(rng.integers(1, p))}}, frozenset({2}))
    return PGroup(alg, p, constraint=rng.choice(3, size=2, replace=False).tolist())


@pytest.mark.parametrize(
    "which, n, p",
    [("u", 1, p) for p in _ODD_PRIMES_TO_19] + [("g", 1, p) for p in _ODD_PRIMES_TO_19]
    + [("u", 2, 3), ("random", 1, 3), ("random", 2, 3)],
)
def test_table_report_matches_reference_loop(which, n, p):
    g = {"u": unp_group, "g": lambda n, p: PGroup(free_two_step(n), p), "random": _small_random_group}[which](n, p)
    assert g.order ** 3 <= pgroups.ASSOC_EXHAUSTIVE_BUDGET
    assert g.verify(mode="exhaustive") == reference_exhaustive_report(g)


def _u23_table():
    """U(2, 3)'s index table with the indices of its 5 module generators (the
    2 lifts of S, then the 3 elements p e_k) and of the 3 p e_k alone."""
    g = unp_group(2, 3)
    M, index = reference_index_table(g)
    gens = np.array([index[tuple(col)] for col in g._module_generators().T.tolist()])
    return g, M, gens, gens[2:]


@pytest.mark.parametrize("seed", range(32))
def test_light_test_matches_brute_force_on_perturbed_tables(seed):
    """One product sent to another element: closure is kept, and the verdict
    at the generators, and with only the p e_k (which fall back to all
    middles), equals the N^3 loop's."""
    _, M, gens, pk = _u23_table()
    rng = np.random.default_rng(seed)
    x, y = rng.integers(0, len(M), size=2)
    M = M.copy()
    M[x, y] = (M[x, y] + rng.integers(1, len(M))) % len(M)
    expected = reference_table_associative(M)
    assert pgroups._table_associative(M, gens) == expected
    assert pgroups._table_associative(M, pk) == expected


def test_light_test_falls_back_when_the_generators_fall_short():
    """Adding p x_0^2 y_1 to the last coordinate breaks associativity, yet
    (x a) y = x (a y) at every a = p e_k (a_0 and a_1 vanish mod p, and
    (x a)_0 = x_0); the p e_k generate only p K, so all middles are read."""
    g, _, _, pk = _u23_table()
    p, q = int(g.p), g.q

    def products(E):
        P = reference_mult_rows_outer(g, E, E)
        P[..., -1] = (P[..., -1] + p * (E[:, None, 0] % p) ** 2 * (E[None, :, 1] % p)) % q
        return P

    M, _ = reference_index_table(g, products)
    assert not reference_table_associative(M)
    assert all(np.array_equal(M[M[:, a]], M[:, M[a]]) for a in pk)
    assert not pgroups._table_associative(M, pk)


@pytest.mark.parametrize("which", ["generators", "p K"])
def test_light_test_reads_the_generators_as_middles(monkeypatch, which):
    """U(2, 3): 5 middles when they generate the table, all 243 otherwise."""
    _, M, gens, pk = _u23_table()
    calls = []
    equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: calls.append(1) or equal(a, b))
    assert pgroups._table_associative(M, gens if which == "generators" else pk)
    assert len(calls) == (5 if which == "generators" else 243)


def test_verify_raises_on_an_exponent_mismatch(monkeypatch):
    """A plain ``if``, not ``assert``: the check holds under ``python -O`` too."""
    g = unp_group(2, 3)
    frat_log, comm_rank, _ = g._subgroup_ranks()
    monkeypatch.setattr(g, "_subgroup_ranks", lambda: (frat_log, comm_rank, 3))
    with pytest.raises(AssertionError, match="exponent 9 seen"):
        g.verify(mode="exhaustive")


_KERNEL = PGroup._mult


def _non_bilinear(self, a, b):
    """Adds p x_0^2 y_1 to the last coordinate: no 2-cocycle, so not associative,
    and x (-x) = -p x_0^2 x_1 in that coordinate, so -x is no inverse."""
    out = _KERNEL(self, a, b)
    out[-1] = (out[-1] + self.p * ((a[0] % self.p) ** 2 * (b[1] % self.p))) % self.q
    return out


def _leaves_subgroup(self, a, b):
    """Adds 1 to the last coordinate, which U(n) constrains to p Z/p^2."""
    out = _KERNEL(self, a, b)
    out[-1] = (out[-1] + 1) % self.q
    return out


def _non_central(self, a, b):
    """Adds p (x // p)_0 (y mod p)_0 to the first coordinate: w = (p, 0, ...) no longer commutes."""
    out = _KERNEL(self, a, b)
    out[0] = (out[0] + self.p * ((a[0] // self.p) * (b[0] % self.p))) % self.q
    return out


def _one_sided_identity(side):
    """Adds p (x_0 + y_0) y_0 (side "left") or p (x_0 + y_0) x_0 (side "right")
    to the first coordinate: x (-x) stays 0, but 0 stops being a left or right identity."""

    def kernel(self, a, b):
        out = _KERNEL(self, a, b)
        f = (a[0] + b[0]) % self.p * ((b if side == "left" else a)[0] % self.p)
        out[0] = (out[0] + self.p * f) % self.q
        return out

    return kernel


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
def test_one_sided_identity_fails(monkeypatch, side, mode):
    monkeypatch.setattr(PGroup, "_mult", _one_sided_identity(side))
    assert not unp_group(2, 3).verify(mode=mode).identity_inverse_ok


@pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
def test_non_bilinear_product_fails_associativity(monkeypatch, mode):
    monkeypatch.setattr(PGroup, "_mult", _non_bilinear)
    rep = unp_group(2, 3).verify(mode=mode)
    assert not rep.associativity_ok and not rep.identity_inverse_ok
    assert rep.associativity_triples == (243 ** 3 if mode == "exhaustive" else pgroups.DEFAULT_TRIPLES)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["group", "-n", "2", "-p", "3", "--mode", mode, "--format", "json"])
    assert code == EXIT_DISAGREE
    assert not json.loads(out.getvalue())["verification"]["associativity_ok"]


def test_product_leaving_the_subgroup_fails_closure(monkeypatch):
    g = unp_group(2, 3)
    # Under the patched kernel _subgroup_ranks would raise on a product operand off S.
    ranks = g._subgroup_ranks()
    monkeypatch.setattr(g, "_subgroup_ranks", lambda: ranks)
    monkeypatch.setattr(PGroup, "_mult", _leaves_subgroup)
    rep = g.verify(mode="exhaustive")  # (8, 8, 6) * 1 = (8, 8, 7) sorts past every element
    assert not rep.associativity_ok
    assert rep.associativity_exhaustive and rep.associativity_triples == 243 ** 3


def test_product_leaving_the_subgroup_fails_sampled(monkeypatch):
    """Sampled mode: (x y) z and x (y z) both gain 2 in the last coordinate,
    but x * 0 = x + (0, 0, 1) is no identity."""
    g = unp_group(2, 3)
    ranks = g._subgroup_ranks()
    monkeypatch.setattr(g, "_subgroup_ranks", lambda: ranks)
    monkeypatch.setattr(PGroup, "_mult", _leaves_subgroup)
    rep = g.verify(mode="sampled")
    assert not rep.identity_inverse_ok
    assert rep.associativity_triples == pgroups.DEFAULT_TRIPLES


@pytest.mark.parametrize("p", _PRIMES)
def test_subgroup_ranks_take_a_few_batched_products(monkeypatch, p):
    """Three products for the commutators of the lifts of S that the bracket
    reads; for the p-th powers of all lifts one squaring per bit of p and one
    product per set bit."""
    calls = []

    def counting(self, a, b):
        calls.append(np.broadcast_shapes(a.shape, b.shape))
        return _KERNEL(self, a, b)

    monkeypatch.setattr(PGroup, "_mult", counting)
    # U(3): dim S = 3; the free group on 3: dim S = 6, of which 3 lie below _span = 3.
    for g, lifts in ((unp_group(3, p), 3), (PGroup(free_two_step(3), p), 6)):
        calls.clear()
        g._subgroup_ranks()
        assert len(calls) == 3 + int(p).bit_length() + bin(p).count("1")
        assert calls[:3] == [(6, 3)] * 3 and set(calls[3:]) == {(6, lifts)}


def test_subgroup_ranks_reject_products_off_the_constraint(monkeypatch):
    monkeypatch.setattr(PGroup, "_mult", _leaves_subgroup)
    g = unp_group(2, 3)
    with pytest.raises(ConstraintViolation):  # (1, 0, 0) * (0, 1, 0) = (1, 1, 4) leaves S
        g._subgroup_ranks()


@pytest.mark.parametrize(
    "n, p, mode",
    [
        (2, 3, "exhaustive"),
        (2, 5, "exhaustive"),  # order^3 > 1e8: sampled triples
        (2, 3, "sampled"),
    ],
)
def test_non_central_order_p_product_fails(monkeypatch, n, p, mode):
    """(p e_0, e_0) is the first generator pair, so no pair passes."""
    monkeypatch.setattr(PGroup, "_mult", _non_central)
    rep = unp_group(n, p).verify(mode=mode)
    assert not rep.pc_ok
    assert rep.pc_pairs == 0


def _non_central_last(self, a, b):
    """Adds p (x // p)_2 (y mod p)_0 to coordinate 2: for U(2, p) only p e_2,
    the last order-p generator, stops commuting with the lift of e_0."""
    out = _KERNEL(self, a, b)
    out[2] = (out[2] + self.p * ((a[2] // self.p) * (b[0] % self.p))) % self.q
    return out


@pytest.mark.parametrize("which", ["u", "g"])
def test_centrality_certificate_in_chunks(monkeypatch, which):
    """The n' x m generator pairs go k-major in chunks of ``_chunk`` pairs, two
    products each, and stop at the first failing chunk."""
    g = unp_group(2, 3) if which == "u" else PGroup(free_two_step(2), 3)
    m = 5 if which == "u" else 3  # module generators: dim S + n' or n'
    g._chunk = 4
    ranks = g._subgroup_ranks()
    monkeypatch.setattr(g, "_subgroup_ranks", lambda: ranks)
    widths = []

    def counting(self, a, b):
        widths.append(np.broadcast_shapes(a.shape, b.shape)[1:])
        return _KERNEL(self, a, b)

    monkeypatch.setattr(PGroup, "_mult", counting)
    rep = g.verify(mode="sampled", triples=1)
    assert rep.pc_ok and rep.pc_pairs == 3 * m
    blocks = [4] * (3 * m // 4) + [3 * m % 4]
    assert widths[7:] == [(b,) for b in blocks for _ in range(2)]

    monkeypatch.setattr(PGroup, "_mult", _non_central_last)
    rep = g.verify(mode="sampled", triples=1)
    # the pairs (p e_2, e_0) start at 2 m; the chunks before the one holding it pass
    assert not rep.pc_ok and rep.pc_pairs == 2 * m // 4 * 4


@pytest.mark.parametrize(
    "kind, size", [("free-S", "zero-S"), ("free-S", "mixed-S"), ("dense-S", (6, 3))], ids=["zero-S", "mixed-S", "dense-S"]
)
def test_constrained_groups_pass_the_certificate(kind, size):
    g = _kernel_group(kind, size, 7)
    rep = g.verify(mode="sampled", triples=100)
    assert rep.pc_ok and rep.pc_pairs == 6 * (g.s_dim + 6)


def _sampled_verify_peak(triples):
    g = unp_group(4, 7)
    tracemalloc.start()
    try:
        g.verify(mode="sampled", seed=0, triples=triples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_verify_memory():
    peak = _sampled_verify_peak(pgroups.DEFAULT_TRIPLES)  # about 3 MiB
    assert peak < 4 * 2 ** 20, f"tracemalloc peak {peak / 2 ** 20:.1f} MiB"


def test_sampled_verify_memory_does_not_grow_with_triples():
    """Triples are drawn and checked a chunk at a time: ten times the default
    count peaks no higher (drawing them all at once peaked above 500 MiB)."""
    peak = _sampled_verify_peak(10 * pgroups.DEFAULT_TRIPLES)
    assert peak < 4 * 2 ** 20, f"tracemalloc peak {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_sampled_products_see_each_triple_once(monkeypatch, offset):
    """Each chunk makes the seven sampled products (four for associativity,
    three for identity and inverses) on the same columns, and the chunks cover
    exactly ``triples`` columns; then the centrality certificate makes two
    products on its 3 x 5 generator pairs."""
    g = unp_group(2, 3)
    triples = 1 if offset is None else g._chunk + offset
    ranks = g._subgroup_ranks()
    monkeypatch.setattr(g, "_subgroup_ranks", lambda: ranks)
    widths = []

    def counting(self, a, b):
        widths.append(np.broadcast_shapes(a.shape, b.shape)[1:])
        return _KERNEL(self, a, b)

    monkeypatch.setattr(PGroup, "_mult", counting)
    rep = g.verify(mode="sampled", triples=triples)
    assert rep.associativity_ok and rep.identity_inverse_ok and rep.pc_ok
    full, rest = divmod(triples, g._chunk)
    chunks = [g._chunk] * full + ([rest] if rest else [])
    assert widths == [(w,) for w in chunks for _ in range(7)] + [(15,)] * 2
