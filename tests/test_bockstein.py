import inspect
from itertools import product
from random import Random

import pytest

from frattini import bocksteindga
from frattini.bocksteindga import (
    BigradedElement,
    Generators,
    PrimeTooSmall,
    _add_beta_term,
    _monomials_up_to,
    _rule_b,
    bockstein,
    format_bigraded,
    restrict_to_unp,
    verify_differential,
)
from frattini.extalg import AmbientMismatch
from frattini.fplin import BudgetExceeded
from helpers import reference_beta_term, reference_square_violations

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
    assert z * z == BigradedElement(G, {(0, (0, 0)): 1})
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


@pytest.mark.parametrize("n", [2, 3, 7, 100])
def test_pair_names_without_the_pair_table(n):
    """``format_bigraded`` names z_(i,j) and x_(i,j) by the inverse of ``_pair``:
    every pair reads as the ``pairs`` table names it, and formatting restricted
    elements never builds the table of their fresh restricted ambient."""
    amb = Generators(n, 5)
    restricted = []
    for i, j in amb.pairs:
        assert str(amb.zeta_pair(i, j) * amb.x_pair(i, j)) == f"z({i},{j}) x({i},{j})"
        elem = restrict_to_unp(amb.zeta_pair(i, j) * amb.x(1))
        assert str(elem) == f"s({i},{j}) x1"
        restricted.append(elem.ambient)
    assert not any("pairs" in r.__dict__ for r in restricted)


def test_index_validation():
    with pytest.raises(ValueError):
        G.x(4)
    with pytest.raises(ValueError):
        G.zeta_pair(2, 1)
    with pytest.raises(ValueError):
        G.x_pair(1, 1)
    with pytest.raises(ValueError):
        Generators(0, 5)
    for n in (1, 2, 5, 9):
        amb = Generators(n, 5)
        assert [amb._pair(i, j) for i, j in amb.pairs] == list(range(n, amb.count))
        for i, j in ((0, 1), (2, 1), (n, n + 1)):
            with pytest.raises(ValueError, match=rf"^\({i}, {j}\) is not a pair with 1 <= i < j <= {n}$"):
                amb.zeta_pair(i, j)


@pytest.mark.parametrize("key", [(0, (3, 1)), (0, (1, 3, 2)), (0, (-1,)), (0, (6,)), (1 << 6, ())])
def test_constructor_rejects_keys_outside_the_generator_set(key):
    """N = 6 generators per block for n = 3: indices run over 0..5, sorted."""
    with pytest.raises(ValueError, match="does not fit"):
        BigradedElement(G, {key: 1})


def _dense(amb, mono):
    exps = [0] * amb.count
    for g in mono:
        exps[g] += 1
    return tuple(exps)


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_terms_order_matches_dense_exponent_order(n, restricted):
    """terms() sorts sorted index tuples as the dense key (degree, -E, mask) would."""
    amb = Generators(n, 7, restricted=restricted)
    monos = _monomials_up_to(Generators(n, 7), 5)
    rng = Random(n)

    def dense_key(t):
        mask, mono = t[0]
        return (mask.bit_count() + 2 * len(mono), tuple(-e for e in _dense(amb, mono)), mask)

    for _ in range(40):
        picks = rng.sample(monos, k=rng.randint(1, 12))
        elem = BigradedElement(amb, {m: rng.randrange(1, 7) for m in picks})
        elem = elem * elem + elem
        assert list(elem.terms()) == sorted(elem._terms.items(), key=dense_key)


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
    """Monomials of degree <= max_degree on which kernel and the recursion differ mod p.

    One rule table serves the whole corpus, as it serves a whole sweep: each
    mono's rule (b) is built under the first mask that meets it and then read
    under masks that do and do not hold its x bits."""
    bad = 0
    rules: dict = {}
    for mono in _monomials_up_to(Generators(amb.n, amb.p), max_degree):
        got: dict = {}
        kernel(got, amb, *mono, 1, rules)
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
    """A copy of the Leibniz kernel, rule (b)'s builder included, with one
    source fragment of either replaced; the copy calls its own builder."""
    source = inspect.getsource(_rule_b) + inspect.getsource(_add_beta_term)
    assert source.count(old) == 1, f"mutation target {old!r} not found"
    namespace = dict(vars(bocksteindga))
    exec(source.replace(old, new), namespace)
    return namespace["_add_beta_term"]


# Drop the exponent factor e of rule (b).
DROP_E = ("((j, i, e), (i, j, -e))", "((j, i, 1), (i, j, -1))")
# Drop rule (b)'s (-1)^|S|: count only the factors above x, the merge sign alone.
DROP_S_SIGN = ("(mask & (xbit - 1))", "(mask & -xbit)")
# Drop the x_i x_j merge sign from rule (a)'s parity, keeping -(-1)^k.
DROP_MERGE_SIGN = ("((bit - 1) ^ (bj - bi))", "(bit - 1)")


@pytest.mark.parametrize(
    "old, new",
    [DROP_E, pytest.param(*DROP_S_SIGN, id="drop-S-sign"), pytest.param(*DROP_MERGE_SIGN, id="drop-merge-sign")],
)
@pytest.mark.parametrize("n, p, max_degree", CORPUS)
def test_corpus_catches_mutants(n, p, max_degree, old, new):
    assert _corpus_disagreements(_mutant(old, new), Generators(n, p), max_degree) > 0


def test_sweep_counts_square_violations_of_a_broken_kernel(monkeypatch):
    """Without the (-1)^|S| sign beta^2 is no longer zero; the term-dict sweep
    must count exactly the monomials that bockstein(bockstein(m)) flags."""
    monkeypatch.setattr(bocksteindga, "_add_beta_term", _mutant(*DROP_S_SIGN))
    expected = reference_square_violations(3, 5, 5)
    assert expected > 0
    assert verify_differential(3, 5, 5, leibniz_pairs=0).beta_squared_violations == expected


def test_monomials_in_mask_scan_order():
    """Ascending exterior masks, then exponent vectors: the order the seeded
    Leibniz sampling draws from."""
    amb = Generators(3, 5)
    for d in range(6):
        scan = [
            (mask, tuple(g for g, e in enumerate(exps) for _ in range(e)))
            for mask in range(1 << amb.count)
            if mask.bit_count() <= d
            for exps in sorted(product(range(d + 1), repeat=amb.count))
            if 2 * sum(exps) <= d - mask.bit_count()
        ]
        assert _monomials_up_to(amb, d) == scan


def test_generator_counts_cached_outside_equality():
    amb, fresh = Generators(4, 7), Generators(4, 7)
    assert amb.count == 10
    assert "pairs" not in vars(amb)  # count is C(n, 2) in closed form
    assert len(amb.pairs) == 6
    assert {"pairs", "count"} <= vars(amb).keys()
    assert amb == fresh and hash(amb) == hash(fresh)


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


def test_sweep_without_pairs_groups_no_monomials_by_degree(monkeypatch):
    """Only the Leibniz pairs read the monomials grouped by degree."""
    calls = []
    degree = bocksteindga._term_degree
    monkeypatch.setattr(bocksteindga, "_term_degree", lambda *t: calls.append(t) or degree(*t))
    rep = verify_differential(4, 7, 7, leibniz_pairs=0, seed=3)
    assert not calls
    assert rep == bocksteindga.BocksteinReport(
        n=4, p=7, max_degree=7, monomials_checked=19448, beta_squared_violations=0,
        leibniz_pairs=0, leibniz_violations=0, seed=3,
    )
    verify_differential(2, 5, 3, leibniz_pairs=1)
    assert len(calls) >= len(_monomials_up_to(Generators(2, 5), 3))


def test_sweep_budget_refuses_before_enumerating(monkeypatch):
    def refuse(amb, d):
        raise AssertionError("monomials enumerated")

    monkeypatch.setattr(bocksteindga, "_monomials_up_to", refuse)
    with pytest.raises(BudgetExceeded):
        verify_differential(12, 5, 6)
