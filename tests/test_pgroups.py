import contextlib
import io
import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from frattini import pgroups
from frattini.cli import EXIT_DISAGREE, main
from frattini.pgroups import (
    BudgetExceeded,
    ConstraintViolation,
    PGroup,
    PGroupElement,
    TwoStepLieAlgebra,
    free_two_step,
    unp_group,
)
from helpers import (
    reference_exhaustive_report,
    reference_member_rows,
    reference_module_log_order,
    reference_mult_rows,
    reference_subgroup_ranks,
)


def test_free_two_step_shape():
    alg = free_two_step(2)
    assert alg.gen_count == 3
    table = np.array(alg.bracket)
    assert table.shape == (3, 3, 3)
    assert table[0, 1].tolist() == [0, 0, 1]
    assert table[1, 0].tolist() == [0, 0, -1]
    assert alg.central == frozenset({2})
    assert free_two_step(3).gen_count == 6


def _bracket_table(entries):
    return tuple(tuple(tuple(vec) for vec in row) for row in entries)


def test_lie_algebra_validation():
    zero2 = (0, 0)
    # not antisymmetric
    with pytest.raises(ValueError):
        TwoStepLieAlgebra(2, _bracket_table([[zero2, (0, 1)], [zero2, zero2]]), frozenset({1}))
    # nonzero diagonal
    with pytest.raises(ValueError):
        TwoStepLieAlgebra(2, _bracket_table([[(0, 1), zero2], [zero2, zero2]]), frozenset({1}))
    # bracket value escapes the center
    zero3 = (0, 0, 0)
    with pytest.raises(ValueError):
        TwoStepLieAlgebra(
            3,
            _bracket_table(
                [[zero3, (1, 0, 0), zero3], [(-1, 0, 0), zero3, zero3], [zero3, zero3, zero3]]
            ),
            frozenset({2}),
        )
    # central generator used as an argument
    with pytest.raises(ValueError):
        TwoStepLieAlgebra(2, _bracket_table([[zero2, (0, 1)], [(0, -1), zero2]]), frozenset({1}))
    abelian = TwoStepLieAlgebra(2, _bracket_table([[zero2, zero2], [zero2, zero2]]), frozenset({1}))
    assert abelian.gen_count == 2


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
    table = np.array(free_two_step(n).bracket)
    assert np.count_nonzero(table, axis=(0, 1)).max() <= 2
    PGroup(free_two_step(n), 46337)
    unp_group(n, 46337)


def test_bracket_bound_enforced_at_construction(monkeypatch):
    checked = []
    monkeypatch.setattr(pgroups, "_check_bracket_bound", lambda terms, p: checked.append((terms, p)))
    PGroup(free_two_step(2), 5)  # [b_1, b_2] and [b_2, b_1] both land in the central coordinate
    assert checked == [(2, 5)]


def _dense_group(gens, central, p, constrained):
    """Dense random brackets of the non-central generators into the central ones,
    with a random constraint on as many rows as there are non-central generators."""
    rng = np.random.default_rng([gens, central, p])
    free = gens - central
    table = np.zeros((gens, gens, gens), dtype=np.int64)
    for i, j in combinations(range(free), 2):
        table[i, j, free:] = rng.integers(-2 * p, 2 * p, size=central)
        table[j, i] = -table[i, j]
    alg = TwoStepLieAlgebra(gens, table.tolist(), frozenset(range(free, gens)))
    return PGroup(alg, p, constraint=rng.integers(0, p, size=(free, gens)) if constrained else None)


_PRIMES = (3, 7, 46337)
_KERNEL_CASES = (
    [("free", n, p) for p in _PRIMES for n in range(1, 6)]
    + [("U", n, p) for p in _PRIMES for n in range(1, 5)]
    + [(kind, shape, p) for p in _PRIMES for shape in ((2, 1), (4, 2), (6, 3), (7, 2))
       for kind in ("dense", "dense-S")]
)


def _kernel_group(kind, size, p):
    if kind == "free":
        return PGroup(free_two_step(size), p)
    if kind == "U":
        return unp_group(size, p)
    return _dense_group(*size, p, constrained=kind == "dense-S")


def _operand_pairs(g):
    """The operand shapes ``verify`` passes to ``_mult_rows``, on random residue rows."""
    n = g.algebra.gen_count
    rng = np.random.default_rng(g.p)
    if g.constrained:
        x, y = (g._sample_rows(rng, 40) for _ in range(2))
    else:  # any rows of K
        x, y = (rng.integers(0, g.q, size=(40, n)) for _ in range(2))
    zero = np.zeros((1, n), dtype=np.int64)
    return (
        (x, y),  # sampled triples
        (x, zero), (zero, x), (x, (-x) % g.q),  # identity and inverses
        (x[:1], y), (y, x[:1]),  # one order-p candidate against all rows
        (x[:, None, :], y[None, :, :]),  # Cayley table
    )


@pytest.mark.parametrize("kind, size, p", _KERNEL_CASES)
def test_mult_rows_matches_reference(kind, size, p):
    g = _kernel_group(kind, size, p)
    for a, b in _operand_pairs(g):
        assert np.array_equal(g._mult_rows(a, b), reference_mult_rows(g, a, b)), (a.shape, b.shape)


@pytest.mark.parametrize("kind, size, p", _KERNEL_CASES)
def test_mult_rows_leaves_operands_unchanged(kind, size, p):
    g = _kernel_group(kind, size, p)
    for a, b in _operand_pairs(g):  # broadcast views of the same two arrays
        before = a.copy(), b.copy()
        g._mult_rows(a, b)
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


@pytest.mark.parametrize("kind, size, p", _KERNEL_CASES)
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
@pytest.mark.parametrize("shape", ((2, 1), (4, 2), (6, 3), (7, 2)))
def test_member_rows_matches_reference(shape, p):
    g = _dense_group(*shape, p, constrained=True)
    rng = np.random.default_rng([p, *shape])
    on = g._sample_rows(rng, 30)
    off = rng.integers(0, g.q, size=(30, g.algebra.gen_count))
    rows = np.concatenate([on, off])
    got = g._member_rows(rows)
    assert np.array_equal(got, reference_member_rows(g, rows))
    assert got[:30].all() and not got[30:].all()


_ODD_PRIMES_TO_19 = (3, 5, 7, 11, 13, 17, 19)


@pytest.mark.parametrize(
    "which, n, p",
    [("u", 1, p) for p in _ODD_PRIMES_TO_19] + [("g", 1, p) for p in _ODD_PRIMES_TO_19] + [("u", 2, 3)],
)
def test_table_report_matches_reference_loop(which, n, p):
    g = unp_group(n, p) if which == "u" else PGroup(free_two_step(n), p)
    assert g.order ** 3 <= pgroups.ASSOC_EXHAUSTIVE_BUDGET
    assert g.verify(mode="exhaustive") == reference_exhaustive_report(g)


_KERNEL = PGroup._mult_rows


def _non_bilinear(self, a, b):
    """Adds p x_0^2 y_1 to the last coordinate: no 2-cocycle, so not associative,
    and x (-x) = -p x_0^2 x_1 in that coordinate, so -x is no inverse."""
    out = _KERNEL(self, a, b)
    out[..., -1] = (out[..., -1] + self.p * ((a[..., 0] % self.p) ** 2 * (b[..., 1] % self.p))) % self.q
    return out


def _leaves_subgroup(self, a, b):
    """Adds 1 to the last coordinate, which U(n) constrains to p Z/p^2."""
    out = _KERNEL(self, a, b)
    out[..., -1] = (out[..., -1] + 1) % self.q
    return out


def _non_central(self, a, b):
    """Adds p (x // p)_0 (y mod p)_0 to the first coordinate: w = (p, 0, ...) no longer commutes."""
    out = _KERNEL(self, a, b)
    out[..., 0] = (out[..., 0] + self.p * ((a[..., 0] // self.p) * (b[..., 0] % self.p))) % self.q
    return out


def _one_sided_identity(side):
    """Adds p (x_0 + y_0) y_0 (side "left") or p (x_0 + y_0) x_0 (side "right")
    to the first coordinate: x (-x) stays 0, but 0 stops being a left or right identity."""

    def kernel(self, a, b):
        out = _KERNEL(self, a, b)
        f = (a[..., 0] + b[..., 0]) % self.p * ((b if side == "left" else a)[..., 0] % self.p)
        out[..., 0] = (out[..., 0] + self.p * f) % self.q
        return out

    return kernel


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
def test_one_sided_identity_fails(monkeypatch, side, mode):
    monkeypatch.setattr(PGroup, "_mult_rows", _one_sided_identity(side))
    assert not unp_group(2, 3).verify(mode=mode).identity_inverse_ok


@pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
def test_non_bilinear_product_fails_associativity(monkeypatch, mode):
    monkeypatch.setattr(PGroup, "_mult_rows", _non_bilinear)
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
    monkeypatch.setattr(PGroup, "_mult_rows", _leaves_subgroup)
    rep = g.verify(mode="exhaustive")  # (8, 8, 6) * 1 = (8, 8, 7) sorts past every element
    assert not rep.associativity_ok
    assert rep.associativity_exhaustive and rep.associativity_triples == 243 ** 3


@pytest.mark.parametrize("p", _PRIMES)
def test_subgroup_ranks_take_a_few_batched_products(monkeypatch, p):
    """Three products for the commutators; for the p-th powers one squaring per
    bit of p and one product per set bit."""
    calls = []

    def counting(self, a, b):
        calls.append(np.broadcast_shapes(a.shape, b.shape))
        return _KERNEL(self, a, b)

    monkeypatch.setattr(PGroup, "_mult_rows", counting)
    g = unp_group(3, p)  # 3 + 6 module generators, 36 pairs
    g._subgroup_ranks()
    assert len(calls) == 3 + int(p).bit_length() + bin(p).count("1")
    assert calls[:3] == [(36, 6)] * 3 and set(calls[3:]) == {(9, 6)}


def test_subgroup_ranks_reject_products_off_the_constraint(monkeypatch):
    monkeypatch.setattr(PGroup, "_mult_rows", _leaves_subgroup)
    g = unp_group(2, 3)
    with pytest.raises(ConstraintViolation):  # (1, 0, 0) * (0, 1, 0) = (1, 1, 4) leaves S
        g._subgroup_ranks()


@pytest.mark.parametrize(
    "n, p, mode, pairs",
    [
        (2, 3, "exhaustive", 3 ** 2 * 243),  # (3, 0, 0) is the 10th order-p element
        (2, 5, "exhaustive", 5 ** 2 * 3125),  # order^3 > 1e8; (5, 0, 0) is the 26th
        (2, 3, "sampled", pgroups.DEFAULT_TRIPLES),
    ],
)
def test_non_central_order_p_product_fails(monkeypatch, n, p, mode, pairs):
    monkeypatch.setattr(PGroup, "_mult_rows", _non_central)
    rep = unp_group(n, p).verify(mode=mode)
    assert not rep.pc_ok
    assert rep.pc_pairs == pairs


def test_sampled_verify_memory():
    g = unp_group(4, 7)
    tracemalloc.start()
    try:
        g.verify(mode="sampled", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70 * 2 ** 20, f"tracemalloc peak {peak / 2 ** 20:.1f} MiB"
