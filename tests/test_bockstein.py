import inspect
from itertools import product

import pytest

from frattini import bocksteindga
from frattini.bocksteindga import (
    BigradedElement,
    Generators,
    PrimeTooSmall,
    _add_beta_term,
    _monomials_up_to,
    bockstein,
    format_bigraded,
    restrict_to_unp,
    verify_differential,
)
from frattini.extalg import AmbientMismatch
from frattini.pgroups import BudgetExceeded
from helpers import reference_beta_term

G = Generators(3, 5)


def test_generator_formulas_verbatim():
    assert str(bockstein(G.zeta_pair(1, 2))) == "z1 x2 - z2 x1"
    assert str(bockstein(G.x_pair(1, 2))) == "-x1 x2"
    assert str(bockstein(G.zeta_pair(1, 3))) == "z1 x3 - z3 x1"
    assert str(bockstein(G.zeta_pair(2, 3))) == "z2 x3 - z3 x2"


def test_generator_formulas_algebraic():
    assert bockstein(G.zeta_pair(1, 2)) == G.zeta(1) * G.x(2) - G.zeta(2) * G.x(1)
    assert bockstein(G.x_pair(1, 2)) == -(G.x(1) * G.x(2))
    for i in range(1, 4):
        assert bockstein(G.x(i)).is_zero()
        assert bockstein(G.zeta(i)).is_zero()
    assert bockstein(G.one()).is_zero()
    assert bockstein(G.scalar(3)).is_zero()


def test_product_rule_worked_example():
    a = G.zeta_pair(1, 2) * G.x_pair(1, 2)
    expected = (G.zeta(1) * G.x(2) - G.zeta(2) * G.x(1)) * G.x_pair(1, 2) - G.zeta_pair(1, 2) * (
        G.x(1) * G.x(2)
    )
    assert bockstein(a) == expected
    assert str(bockstein(a)) == "z1 x2 x(1,2) - z2 x1 x(1,2) - z(1,2) x1 x2"


def test_bockstein_raises_degree_by_one():
    for elem in (G.zeta_pair(1, 2), G.x_pair(2, 3), G.zeta_pair(1, 3) * G.x(1)):
        d = elem.degree()
        img = bockstein(elem)
        assert img.is_zero() or img.degree() == d + 1


def test_bockstein_squares_to_zero_exhaustively():
    rep = verify_differential(2, 5, 5, leibniz_pairs=50, seed=1)
    assert rep.beta_squared_violations == 0
    assert rep.leibniz_violations == 0
    assert rep.monomials_checked > 0


def test_leibniz_manual():
    u = G.x(1)  # odd degree
    v = G.zeta_pair(2, 3)
    lhs = bockstein(u * v)
    rhs = bockstein(u) * v - u * bockstein(v)
    assert lhs == rhs
    u2 = G.zeta(1)  # even degree
    assert bockstein(u2 * v) == bockstein(u2) * v + u2 * bockstein(v)


def test_prime_too_small():
    g3 = Generators(2, 3)
    with pytest.raises(PrimeTooSmall):
        bockstein(g3.zeta_pair(1, 2))
    with pytest.raises(PrimeTooSmall):
        verify_differential(2, 3, 4)


def test_wrong_prime_argument():
    with pytest.raises(ValueError):
        bockstein(G.zeta_pair(1, 2), 7)
    assert bockstein(G.zeta_pair(1, 2), 5) == bockstein(G.zeta_pair(1, 2))


def test_restriction_kills_the_ideal():
    assert restrict_to_unp(G.x_pair(1, 2)).is_zero()
    assert restrict_to_unp(G.x(1) * G.x(2)).is_zero()
    assert not restrict_to_unp(G.x(1)).is_zero()
    assert str(restrict_to_unp(G.zeta(1))) == "s1"
    assert str(restrict_to_unp(bockstein(G.zeta_pair(1, 2)))) == "s1 x2 - s2 x1"


def test_restriction_is_algebra_map():
    a = G.zeta(1) * G.x(2) + 2 * G.zeta_pair(1, 3)
    b = G.x(1) + G.zeta(2)
    assert restrict_to_unp(a * b) == restrict_to_unp(a) * restrict_to_unp(b)


def test_restriction_commutes_with_bockstein():
    for elem in (G.zeta_pair(1, 2), G.zeta_pair(1, 2) * G.x(3), G.x_pair(1, 3) * G.zeta(2)):
        assert restrict_to_unp(bockstein(elem)) == bockstein(restrict_to_unp(elem))


def test_restricted_generator_factory():
    gr = Generators(2, 5, restricted=True)
    assert gr.x_pair(1, 2).is_zero()
    assert (gr.x(1) * gr.x(2)).is_zero()
    assert not (gr.zeta(1) * gr.x(1)).is_zero()


def test_element_arithmetic():
    x1, x2 = G.x(1), G.x(2)
    assert x1 * x2 == -(x2 * x1)
    assert (x1 * x1).is_zero()
    z = G.zeta(1)
    assert z * x1 == x1 * z
    assert z * z == BigradedElement(G, {(0, (2, 0, 0, 0, 0, 0)): 1})
    assert (x1 + x2) - x2 == x1
    assert 6 * x1 == x1
    assert (5 * x1).is_zero()


def test_degree_bigrading():
    assert G.x(1).degree() == 1
    assert G.x_pair(1, 2).degree() == 1
    assert G.zeta(2).degree() == 2
    assert G.zeta_pair(1, 2).degree() == 2
    assert (G.zeta(1) * G.x_pair(2, 3)).degree() == 3
    assert (G.x(1) + G.zeta(1)).degree() is None


def test_formatting_minimal_magnitude():
    assert format_bigraded(4 * G.x(1)) == "-x1"
    assert format_bigraded(3 * G.x(1)) == "-2 x1"
    assert format_bigraded(2 * G.x(1)) == "2 x1"
    assert format_bigraded(G.zero()) == "0"
    assert format_bigraded(G.one()) == "1"
    assert format_bigraded(G.zeta(1) * G.zeta(1)) == "z1^2"


def test_index_validation():
    with pytest.raises(ValueError):
        G.x(4)
    with pytest.raises(ValueError):
        G.zeta_pair(2, 1)
    with pytest.raises(ValueError):
        G.x_pair(1, 1)
    with pytest.raises(ValueError):
        Generators(0, 5)


def test_mixed_generator_sets_rejected():
    other = Generators(2, 5)
    with pytest.raises(ValueError):
        G.x(1) + other.x(1)
    with pytest.raises(ValueError):
        G.x(1) * other.x(1)


def test_mixed_generator_sets_raise_ambient_mismatch():
    other = Generators(2, 5)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(AmbientMismatch):
            op(G.x(1), other.x(1))
    assert G.x(1) != other.x(1)


# Every monomial of degree <= 6 for n = 3 and <= 5 for n = 4: exterior pairs in
# every position, and z-pair exponents up to 3 next to odd and even |S|.
CORPUS = [(3, 5, 6), (4, 7, 5)]


def _corpus_disagreements(kernel, amb, max_degree):
    """Monomials of degree <= max_degree on which kernel and the recursion differ mod p."""
    bad = 0
    for mono in _monomials_up_to(Generators(amb.n, amb.p), max_degree):
        got: dict = {}
        kernel(got, amb, *mono, 1)
        if BigradedElement(amb, got) != BigradedElement(amb, reference_beta_term(amb, *mono)):
            bad += 1
    return bad


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("n, p, max_degree", CORPUS)
def test_leibniz_pass_matches_recursion(n, p, max_degree, restricted):
    amb = Generators(n, p, restricted=restricted)
    assert _corpus_disagreements(_add_beta_term, amb, max_degree) == 0


@pytest.mark.parametrize("restricted", [False, True])
def test_bockstein_matches_recursion_on_sums(restricted):
    """Whole elements, killed terms included: the constructor drops them on both sides."""
    amb = Generators(3, 5, restricted=restricted)
    monos = _monomials_up_to(Generators(3, 5), 5)
    for start in range(0, len(monos), 7):
        terms = {m: 1 + (start + k) % 4 for k, m in enumerate(monos[start:start + 7])}
        expected: dict = {}
        for mono, c in terms.items():
            for key, v in reference_beta_term(amb, *mono).items():
                expected[key] = expected.get(key, 0) + c * v
        assert bockstein(BigradedElement(amb, terms)) == BigradedElement(amb, expected)


def _mutant(old, new):
    """A copy of the Leibniz kernel with one source fragment replaced."""
    source = inspect.getsource(_add_beta_term)
    assert source.count(old) == 1, f"mutation target {old!r} not found"
    namespace = dict(vars(bocksteindga))
    exec(source.replace(old, new), namespace)
    return namespace["_add_beta_term"]


@pytest.mark.parametrize(
    "old, new",
    [
        ("((j, i, e), (i, j, -e))", "((j, i, 1), (i, j, -1))"),  # drop the exponent factor e
        ("c_s = -c if k % 2 else c", "c_s = c"),  # drop the (-1)^|S| sign
    ],
)
@pytest.mark.parametrize("n, p, max_degree", CORPUS)
def test_corpus_catches_mutants(n, p, max_degree, old, new):
    assert _corpus_disagreements(_mutant(old, new), Generators(n, p), max_degree) > 0


def test_monomials_in_mask_scan_order():
    """Ascending exterior masks, then exponent vectors: the order the seeded
    Leibniz sampling draws from."""
    amb = Generators(3, 5)
    for d in range(6):
        scan = [
            (mask, exps)
            for mask in range(1 << amb.count)
            if mask.bit_count() <= d
            for exps in sorted(product(range(d + 1), repeat=amb.count))
            if 2 * sum(exps) <= d - mask.bit_count()
        ]
        assert _monomials_up_to(amb, d) == scan


def test_sweep_cost_follows_monomials_not_masks():
    rep = verify_differential(8, 11, 2, leibniz_pairs=20)
    assert rep.monomials_checked == 703
    assert rep.beta_squared_violations == 0
    assert rep.leibniz_violations == 0


@pytest.mark.parametrize("n, p, max_degree", [(2, 5, 4), (3, 5, 5), (4, 7, 7), (8, 11, 2)])
def test_sweep_budget_counts_exactly_the_monomials(monkeypatch, n, p, max_degree):
    """The budget admits a sweep of exactly SWEEP_BUDGET monomials and refuses one more."""
    count = len(_monomials_up_to(Generators(n, p), max_degree))
    monkeypatch.setattr(bocksteindga, "SWEEP_BUDGET", count)
    assert verify_differential(n, p, max_degree, leibniz_pairs=0).monomials_checked == count
    monkeypatch.setattr(bocksteindga, "SWEEP_BUDGET", count - 1)
    with pytest.raises(BudgetExceeded, match=f"^{count} monomials of degree <= {max_degree} exceed"):
        verify_differential(n, p, max_degree, leibniz_pairs=0)


def test_sweep_budget_refuses_before_enumerating(monkeypatch):
    def refuse(amb, d):
        raise AssertionError("monomials enumerated")

    monkeypatch.setattr(bocksteindga, "_monomials_up_to", refuse)
    with pytest.raises(BudgetExceeded):
        verify_differential(12, 5, 6)
