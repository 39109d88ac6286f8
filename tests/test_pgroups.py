import numpy as np
import pytest

from frattini import pgroups
from frattini.pgroups import (
    BudgetExceeded,
    ConstraintViolation,
    PGroup,
    PGroupElement,
    TwoStepLieAlgebra,
    free_two_step,
    unp_group,
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
