import random
import time
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest

from frattini import (
    Ambient,
    BocksteinNotContained,
    DegenerateSubspace,
    DependentQuadratics,
    KInvariantSubspace,
    KoszulComplex,
    NotACocycle,
    QuadraticForm,
    betti,
    canonicalize,
    cup,
    differential,
    differential_matrix,
    parse,
    unp_complex,
)
from frattini import fplin, koszul
from frattini.extalg import ExtElement, _basis_bits
from frattini.younghook import unp_betti

from helpers import (
    random_complex,
    reference_block_dims,
    random_element,
    random_quadratic,
    reference_betti,
    reference_class_from_cocycle,
)


def heisenberg(p=5):
    amb = Ambient(2, 0, p)
    return KoszulComplex(2, p, [parse("e1^e2", amb)])


def test_heisenberg_betti_and_representatives():
    t = betti(heisenberg())
    assert t.dims == (1, 2, 2, 1)
    assert [str(r) for r in t.representatives[1]] == ["e1", "e2"]
    assert [str(r) for r in t.representatives[2]] == ["e1^x1", "e2^x1"]
    assert [str(r) for r in t.representatives[3]] == ["e1^e2^x1"]


def test_heisenberg_cup_products():
    t = betti(heisenberg())
    e1, e2 = t.classes(1)
    assert (e1 * e2).is_zero()
    assert (e1 * e1).is_zero()
    top = t.classes(3)[0]
    assert (e1 * t.classes(2)[1]).representative == top.representative
    assert (t.unit() * e1).representative == e1.representative


def test_cup_beyond_top_degree_is_zero():
    t = betti(heisenberg())
    top = t.classes(3)[0]
    prod = top * t.classes(1)[0]
    assert prod.is_zero() and prod.degree == 4


def test_cup_requires_same_table():
    t1 = betti(heisenberg())
    t2 = betti(heisenberg())
    with pytest.raises(ValueError):
        cup(t1.classes(1)[0], t2.classes(1)[0])


def test_pure_exterior_complex():
    c = KoszulComplex(2, 3, [])
    assert betti(c).dims == (1, 2, 1)
    assert c.hypothesis_met


def test_full_quadratics_three_generators():
    amb = Ambient(3, 0, 7)
    quads = [parse(s, amb) for s in ("e1^e2", "e1^e3", "e2^e3")]
    c = KoszulComplex(3, 7, quads)
    assert c.hypothesis_met
    assert betti(c, with_representatives=False).dims == (1, 3, 8, 12, 8, 3, 1)


def test_differential_golden_case():
    c = heisenberg()
    x1 = c.ambient.x(1)
    assert differential(c, x1) == c.ambient.e(1) * c.ambient.e(2)
    assert differential(c, c.ambient.e(1)).is_zero()
    assert differential(c, c.ambient.one()).is_zero()
    # d(e1^x1) = -e1^(e1^e2) = 0
    assert differential(c, c.ambient.e(1) * x1).is_zero()


def test_differential_is_graded_derivation(rng):
    for _ in range(25):
        c = random_complex(rng, w_max=4, r_max=3)
        for _ in range(4):
            da = rng.randint(0, c.top_degree)
            a = random_element(rng, c.ambient, degree=da)
            b = random_element(rng, c.ambient)
            lhs = differential(c, a * b)
            sign = -1 if da % 2 else 1
            rhs = differential(c, a) * b + sign * (a * differential(c, b))
            assert lhs == rhs


def test_differential_squares_to_zero(rng):
    for _ in range(40):
        c = random_complex(rng)
        for d in range(c.top_degree + 1):
            m1 = differential_matrix(c, d)
            m2 = differential_matrix(c, d + 1)
            if m1.rows and m2.rows:
                assert not ((m2.entries @ m1.entries) % c.p).any()


def test_betti_rank_only_matches_representative_path(rng):
    for _ in range(15):
        c = random_complex(rng, w_max=4, r_max=3)
        full = betti(c)
        lean = betti(c, with_representatives=False)
        assert full.dims == lean.dims
        assert lean.representatives is None
        with pytest.raises(ValueError):
            lean.classes(1)


def test_betti_workers_agree():
    c = unp_complex(3, 7)
    assert betti(c, workers=4).dims == betti(c, workers=1).dims


def test_representatives_are_cocycles_and_independent(rng):
    for _ in range(10):
        c = random_complex(rng, w_max=4, r_max=3)
        t = betti(c)
        for d in range(c.top_degree + 1):
            assert len(t.representatives[d]) == t.dims[d]
            for rep in t.representatives[d]:
                assert differential(c, rep).is_zero()
                assert rep.degree() == d or rep.is_zero()


def test_class_from_cocycle_rejects_non_cocycle():
    c = heisenberg()
    t = betti(c)
    with pytest.raises(NotACocycle):
        t.class_from_cocycle(c.ambient.x(1))


def test_class_from_cocycle_kills_boundaries():
    c = heisenberg()
    t = betti(c)
    boundary = differential(c, c.ambient.x(1))  # e1^e2
    assert t.class_from_cocycle(boundary).is_zero()


def test_dependent_quadratics_rejected_unless_forced():
    amb = Ambient(3, 0, 5)
    quads = [parse("e1^e2", amb), parse("2 e1^e2", amb)]
    with pytest.raises(DependentQuadratics):
        KoszulComplex(3, 5, quads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c = KoszulComplex(3, 5, quads, force=True)
    assert not c.quadratics_independent
    dims = betti(c, with_representatives=False).dims
    # one dependency among the quadratics adds one extra kernel vector in degree 1
    assert dims[0] == 1 and dims[1] == 4


def test_hypothesis_flag():
    assert KoszulComplex(2, 5, [parse("e1^e2", Ambient(2, 0, 5))]).hypothesis_met
    amb = Ambient(3, 0, 3)
    quads = [parse(s, amb) for s in ("e1^e2", "e1^e3", "e2^e3")]
    assert not KoszulComplex(3, 3, quads).hypothesis_met  # p = 3 <= r + 1 = 4


def test_size_guard():
    with pytest.raises(ValueError):
        KoszulComplex(23, 5, [])


def test_canonicalize_recovers_heisenberg():
    amb = Ambient(2, 0, 5)
    k = KInvariantSubspace(
        2,
        5,
        (
            ((1, 0), amb.zero()),
            ((0, 1), amb.zero()),
            ((0, 0), QuadraticForm.from_element(parse("e1^e2", amb))),
        ),
    )
    c = canonicalize(k)
    assert (c.w, c.r) == (2, 1)
    assert betti(c).dims == (1, 2, 2, 1)


def test_canonicalize_mixed_rows():
    # basis rows mix the two blocks; reduction must split them
    amb = Ambient(2, 0, 5)
    q = QuadraticForm.from_element(parse("e1^e2", amb))
    k = KInvariantSubspace(
        2,
        5,
        (
            ((1, 2), q),
            ((0, 1), amb.zero()),
            ((1, 2), 3 * q),
        ),
    )
    c = canonicalize(k)
    assert (c.w, c.r) == (2, 1)
    assert [str(qd) for qd in c.quadratics] == ["e1^e2"]


def test_canonicalize_rejects_missing_bockstein_direction():
    amb = Ambient(2, 0, 5)
    k = KInvariantSubspace(
        2,
        5,
        (((1, 0), amb.zero()), ((0, 0), QuadraticForm.from_element(parse("e1^e2", amb)))),
    )
    with pytest.raises(BocksteinNotContained) as err:
        canonicalize(k)
    assert err.value.corank == 1


def test_canonicalize_rejects_degenerate_basis():
    amb = Ambient(2, 0, 5)
    k = KInvariantSubspace(2, 5, (((1, 0), amb.zero()), ((2, 0), amb.zero())))
    with pytest.raises(DegenerateSubspace):
        canonicalize(k)


def test_unp_complex_shape_and_prime_independence():
    dims = {}
    for p in (7, 11, 101):
        c = unp_complex(3, p)
        assert (c.w, c.r) == (3, 3)
        dims[p] = betti(c, with_representatives=False).dims
    assert dims[7] == dims[11] == dims[101] == (1, 3, 8, 12, 8, 3, 1)


def test_basis_cache_consistency():
    # downstream code assumes the shared basis order; spot-check the count
    assert len(_basis_bits(3, 3, 3)) == 20
    assert sum(len(_basis_bits(4, 6, d)) for d in range(11)) == 2**10


def test_deterministic_output(rng):
    c = unp_complex(2, 5)
    t1 = betti(c)
    t2 = betti(unp_complex(2, 5))
    assert t1.dims == t2.dims
    for d in range(c.top_degree + 1):
        assert [str(a) for a in t1.representatives[d]] == [str(b) for b in t2.representatives[d]]


# -- ranks-only Betti numbers by graded blocks ---------------------------------


def dense_dims(c):
    """Betti numbers from the full dense matrix of every degree."""
    ranks = [fplin.rank(differential_matrix(c, d)) for d in range(c.top_degree + 1)]
    sizes = [len(_basis_bits(c.w, c.r, d)) for d in range(c.top_degree + 1)]
    return tuple(sizes[d] - ranks[d] - (ranks[d - 1] if d else 0) for d in range(c.top_degree + 1))


def assert_block_dims_match(c):
    lean = betti(c, with_representatives=False).dims
    assert lean == dense_dims(c)
    assert lean == betti(c).dims
    return lean


def forced_complex(w, p, quads):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return KoszulComplex(w, p, quads, force=True)


def is_multidegree(c):
    grade = koszul._grading(c)((0, (1 << c.r) - 1))
    return isinstance(grade, tuple) and len(grade) == c.w


@pytest.mark.parametrize("p", [3, 7, 2147483647])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_ranks_match_dense_on_unp(n, p):
    c = unp_complex(n, p)
    assert is_multidegree(c)
    dims = assert_block_dims_match(c)
    if c.hypothesis_met:
        assert list(dims) == unp_betti(n)


@pytest.mark.parametrize("p", [17, 2147483647])
def test_block_ranks_unp5_match_oracle(p):
    c = unp_complex(5, p)
    assert list(betti(c, with_representatives=False).dims) == unp_betti(5)


def test_block_ranks_random_monomial_families(rng):
    for _ in range(20):
        w = rng.randint(2, 5)
        p = rng.choice((3, 5, 7, 2147483647))
        amb = Ambient(w, 0, p)
        quads = []
        for _ in range(rng.randint(1, 6)):
            a, b = sorted(rng.sample(range(w), 2))
            quads.append(ExtElement(amb, {((1 << a) | (1 << b), 0): rng.randrange(1, p)}))
        c = forced_complex(w, p, quads)
        assert is_multidegree(c)
        assert_block_dims_match(c)


def test_block_ranks_one_non_monomial_quadratic_uses_weight(rng):
    for _ in range(10):
        w = rng.randint(3, 5)
        p = rng.choice((3, 5, 7))
        amb = Ambient(w, 0, p)
        pairs = [(1 << a) | (1 << b) for a in range(w) for b in range(a + 1, w)]
        quads = [ExtElement(amb, {(eb, 0): rng.randrange(1, p)}) for eb in rng.sample(pairs, rng.randint(0, 3))]
        e1, e2 = rng.sample(pairs, 2)
        quads.insert(rng.randint(0, len(quads)), ExtElement(amb, {(e1, 0): 1, (e2, 0): rng.randrange(1, p)}))
        c = forced_complex(w, p, quads)
        assert koszul._grading(c)((1, 1)) == 3
        assert_block_dims_match(c)


def test_block_ranks_zero_quadratic_under_force():
    amb = Ambient(3, 0, 5)
    c = forced_complex(3, 5, [parse("e1^e2", amb), amb.zero()])
    assert not is_multidegree(c)
    dims = assert_block_dims_match(c)
    assert dims[:2] == (1, 4)


@pytest.mark.parametrize("w", [0, 3])
def test_block_ranks_r0(w):
    c = KoszulComplex(w, 7, [])
    assert assert_block_dims_match(c) == tuple(len(_basis_bits(w, 0, d)) for d in range(w + 1))


def test_block_ranks_w0_with_zero_quadratics():
    c = forced_complex(0, 5, [Ambient(0, 0, 5).zero()] * 2)
    assert (c.w, c.r) == (0, 2)
    assert assert_block_dims_match(c) == (1, 2, 1)


def test_ranks_only_builds_no_dense_matrix(monkeypatch):
    def refuse(c, d):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(koszul, "differential_matrix", refuse)
    assert betti(unp_complex(3, 7), with_representatives=False).dims == (1, 3, 8, 12, 8, 3, 1)


def test_ranks_only_unp5_memory():
    tracemalloc.start()
    try:
        table = betti(unp_complex(5, 17), with_representatives=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert table._matrices is None and table.representatives is None
    with pytest.raises(ValueError):
        table.classes(1)


def test_representatives_memory():
    """betti with representatives on a generic (w, r, p) = (7, 4, 11) complex."""
    rng = random.Random(7411)
    while True:
        quads = [random_quadratic(rng, 7, 11) for _ in range(4)]
        try:
            c = KoszulComplex(7, 11, quads)
            break
        except DependentQuadratics:
            continue
    tracemalloc.start()
    try:
        table = betti(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert [len(reps) for reps in table.representatives] == list(table.dims)


def test_size_warning_only_with_representatives(monkeypatch):
    monkeypatch.setattr(koszul, "WARN_SIZE_LIMIT", 3)
    c = unp_complex(3, 7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        betti(c, with_representatives=False)
    assert not caught
    with pytest.warns(RuntimeWarning, match=r"w \+ r = 6: matrix sides reach C\(6, d\)"):
        betti(c)


def test_unp6_complex_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = unp_complex(6, 17)
    assert c.top_degree == 21


# -- representatives and cup lookup by graded blocks ---------------------------


def assert_matches_dense_reference(c, left_degrees=(1,)):
    """Dims, representatives (terms in order) and cup products equal the dense
    reference.  Cups pair every class of a degree in ``left_degrees`` with
    every class that keeps the product within the top degree."""
    table = betti(c)
    dims, reps, mats = reference_betti(c)
    assert table.dims == dims
    for d in range(c.top_degree + 1):
        got = [list(r._terms.items()) for r in table.representatives[d]]
        assert got == [list(r._terms.items()) for r in reps[d]], f"degree {d}"
    for i in left_degrees:
        for a in table.classes(i):
            for j in range(c.top_degree + 1 - i):
                for b in table.classes(j):
                    z = a.representative * b.representative
                    want = z if z.is_zero() else reference_class_from_cocycle(c, reps, mats, z)
                    assert list(cup(a, b).representative._terms.items()) == list(want._terms.items())
    return table


@pytest.mark.parametrize("p", [3, 7, 2147483647])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_representatives_match_dense_on_unp(n, p):
    c = unp_complex(n, p)
    assert is_multidegree(c)
    assert_matches_dense_reference(c, left_degrees=(1, 2) if n < 4 else (1,))


def test_block_representatives_match_dense_on_random_complexes():
    """30 draws; every third with r >= 1 gets a dependent extra quadratic."""
    rng = random.Random(3030)
    dependent = 0
    for i in range(30):
        c = random_complex(rng, w_max=5, r_max=3, primes=(3, 5, 7, 2147483647))
        if i % 3 == 0 and c.r:
            extra = rng.randrange(1, c.p) * c.quadratics[0] + c.quadratics[-1]
            c = forced_complex(c.w, c.p, [ExtElement(Ambient(c.w, 0, c.p), q._terms) for q in c.quadratics] + [extra])
        dependent += not c.quadratics_independent
        assert_matches_dense_reference(c, left_degrees=(1, 2) if c.top_degree <= 6 else (1,))
    assert dependent >= 3


def test_block_representatives_match_dense_on_monomial_families(rng):
    for _ in range(10):
        w = rng.randint(2, 5)
        p = rng.choice((3, 5, 7, 2147483647))
        amb = Ambient(w, 0, p)
        quads = []
        for _ in range(rng.randint(1, 5)):
            a, b = sorted(rng.sample(range(w), 2))
            quads.append(ExtElement(amb, {((1 << a) | (1 << b), 0): rng.randrange(1, p)}))
        c = forced_complex(w, p, quads)
        assert is_multidegree(c)
        assert_matches_dense_reference(c, left_degrees=(1, 2))


def test_block_representatives_edge_complexes():
    amb = Ambient(3, 0, 5)
    assert_matches_dense_reference(forced_complex(3, 5, [parse("e1^e2", amb), amb.zero()]), (0, 1, 2))
    for w in (0, 3):
        assert_matches_dense_reference(KoszulComplex(w, 7, []), (0, 1))
    table = assert_matches_dense_reference(forced_complex(0, 5, [Ambient(0, 0, 5).zero()] * 2), (0, 1))
    assert [str(r) for r in table.representatives[1]] == ["x1", "x2"]


def generic_w5_r3_p7():
    rng = random.Random(44)
    while True:
        try:
            return KoszulComplex(5, 7, [random_quadratic(rng, 5, 7) for _ in range(3)])
        except DependentQuadratics:
            continue


@pytest.mark.parametrize(
    "make", [lambda: unp_complex(3, 7), lambda: unp_complex(4, 11), generic_w5_r3_p7], ids=["u3", "u4", "generic"]
)
def test_class_from_cocycle_across_grades_matches_dense(make, rng):
    """Random combinations of representatives plus a random boundary, which
    spreads each cocycle over several grades."""
    c = make()
    table = betti(c)
    _, reps, mats = reference_betti(c)
    grade = koszul._grading(c)
    spread = 0
    for d in range(1, c.top_degree + 1):
        for _ in range(3):
            z = differential(c, random_element(rng, c.ambient, d - 1, density=0.3))
            for r in table.representatives[d]:
                z = z + rng.randrange(c.p) * r
            if z.is_zero():
                continue
            spread += len({grade(key) for key in z._terms}) > 1
            want = reference_class_from_cocycle(c, reps, mats, z)
            assert list(table.class_from_cocycle(z).representative._terms.items()) == list(want._terms.items())
    assert spread >= 5


def spy_eliminations(monkeypatch):
    """Count every ``fplin._echelon`` call and make ``fplin.solve`` raise."""
    calls = [0]
    echelon = fplin._echelon

    def counted(*args, **kwargs):
        calls[0] += 1
        return echelon(*args, **kwargs)

    def refuse(*args):
        raise AssertionError("fplin.solve called")

    monkeypatch.setattr(fplin, "_echelon", counted)
    monkeypatch.setattr(fplin, "solve", refuse)
    return calls


@pytest.mark.parametrize("make", [lambda: unp_complex(3, 7), generic_w5_r3_p7], ids=["u3", "generic"])
def test_each_block_eliminated_at_most_twice_and_cups_eliminate_nothing(monkeypatch, make, rng):
    c = make()
    grade = koszul._grading(c)
    blocks = sum(len(koszul._graded_basis(c, d, grade)) for d in range(c.top_degree + 1))
    calls = spy_eliminations(monkeypatch)
    table = betti(c)
    assert 0 < calls[0] <= 2 * blocks
    calls[0] = 0
    products = 0
    for a in table.classes(1):
        for j in range(c.top_degree):
            for b in table.classes(j):
                products += not cup(a, b).is_zero()
    for d in range(1, c.top_degree + 1):
        z = differential(c, random_element(rng, c.ambient, d - 1, density=0.3))
        for r in table.representatives[d]:
            z = z + rng.randrange(c.p) * r
        table.class_from_cocycle(z)
    assert products > 0
    assert calls[0] == 0


def weight_graded_w4_r2_p5():
    """Non-monomial quadratics, so the grade is the internal weight."""
    amb = Ambient(4, 0, 5)
    return KoszulComplex(4, 5, [parse("e1^e2 + 2 e3^e4", amb), parse("e1^e3 + e2^e4 + e1^e4", amb)])


@pytest.mark.parametrize(
    "make, multidegree",
    [(weight_graded_w4_r2_p5, False), (generic_w5_r3_p7, False), (lambda: unp_complex(3, 5), True),
     (lambda: unp_complex(4, 7), True)],
    ids=["weight-w4", "weight-w5", "u3", "u4"],
)
def test_boundaries_do_not_change_a_class(make, multidegree, rng):
    """class_from_cocycle(z + d(y)) == class_from_cocycle(z) for cocycles z
    spread over several grades, and both equal the combination of
    representatives z was made from."""
    c = make()
    assert is_multidegree(c) == multidegree
    table = betti(c)
    grade = koszul._grading(c)
    spread = 0
    for d in range(1, c.top_degree + 1):
        for _ in range(3):
            combo = c.ambient.zero()
            for r in table.representatives[d]:
                combo = combo + rng.randrange(c.p) * r
            z = combo + differential(c, random_element(rng, c.ambient, d - 1, density=0.3))
            shifted = z + differential(c, random_element(rng, c.ambient, d - 1, density=0.5))
            spread += len({grade(key) for key in z._terms}) > 1
            for cocycle in (z, shifted):
                assert table.class_from_cocycle(cocycle, degree=d).representative == combo
    assert spread >= 5


def test_representatives_build_no_full_degree_matrix(monkeypatch):
    def refuse(c, d):
        raise AssertionError("full-degree matrix built")

    monkeypatch.setattr(koszul, "differential_matrix", refuse)
    table = betti(unp_complex(3, 7))
    assert table.dims == (1, 3, 8, 12, 8, 3, 1)
    ones = table.classes(1)
    assert str(cup(ones[0], table.classes(2)[3])) == "[2 e1^e2^x2]"


def test_representatives_memory_generic_w6_r6():
    """betti with representatives on a generic (w, r, p) = (6, 6, 11) complex."""
    rng = random.Random(6611)
    while True:
        quads = [random_quadratic(rng, 6, 11) for _ in range(6)]
        try:
            c = KoszulComplex(6, 11, quads)
            break
        except DependentQuadratics:
            continue
    tracemalloc.start()
    try:
        table = betti(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert [len(reps) for reps in table.representatives] == list(table.dims)


# -- ranks-only Betti numbers by S_w orbits of multidegrees --------------------


def spy_orbit_path(monkeypatch):
    """Record each ``_orbit_ranks`` call and count every ``fplin.rank`` call."""
    calls = {"orbit": 0, "rank": 0}
    orbit_ranks, rank = koszul._orbit_ranks, fplin.rank

    def counted_orbit(*args):
        calls["orbit"] += 1
        return orbit_ranks(*args)

    def counted_rank(m):
        calls["rank"] += 1
        return rank(m)

    monkeypatch.setattr(koszul, "_orbit_ranks", counted_orbit)
    monkeypatch.setattr(fplin, "rank", counted_rank)
    return calls


def complete_monomial_complex(rng, w, p):
    """Every pair e_a e_b once, in a shuffled order, with random nonzero coefficients."""
    amb = Ambient(w, 0, p)
    pairs = [(1 << a) | (1 << b) for a in range(w) for b in range(a + 1, w)]
    rng.shuffle(pairs)
    return KoszulComplex(w, p, [ExtElement(amb, {(eb, 0): rng.randrange(1, p)}) for eb in pairs])


@pytest.mark.parametrize("p", [3, 5, 7, 2147483647])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_ranks_match_all_blocks_on_unp(monkeypatch, n, p):
    c = unp_complex(n, p)
    expected = reference_block_dims(c)
    calls = spy_orbit_path(monkeypatch)
    dims = betti(c, with_representatives=False).dims
    assert calls["orbit"] == 1
    assert dims == expected
    if p == 3 and n >= 4:
        assert list(dims) != unp_betti(n)  # torsion shows below the collapse bound


@pytest.mark.parametrize("w", [4, 5])
def test_orbit_ranks_match_all_blocks_on_shuffled_rescaled_complete_complexes(monkeypatch, rng, w):
    calls = spy_orbit_path(monkeypatch)
    for p in (3, 5, 7, 2147483647):
        c = complete_monomial_complex(rng, w, p)
        assert betti(c, with_representatives=False).dims == reference_block_dims(c)
    assert calls["orbit"] == 4


@pytest.mark.parametrize("w", [0, 1])
def test_orbit_ranks_r0(monkeypatch, w):
    c = KoszulComplex(w, 7, [])
    calls = spy_orbit_path(monkeypatch)
    dims = betti(c, with_representatives=False).dims
    assert calls["orbit"] == 1
    assert dims == reference_block_dims(c) == tuple(comb(w, d) for d in range(w + 1))


def monomial_w5_r7_p7():
    amb = Ambient(5, 0, 7)
    texts = ("e1^e2", "3 e2^e3", "e3^e4", "2 e4^e5", "e1^e5", "5 e1^e3", "e2^e4")
    return KoszulComplex(5, 7, [parse(t, amb) for t in texts])


def k4_with_a_repeated_pair():
    amb = Ambient(4, 0, 5)
    texts = ("e1^e2", "e1^e3", "e1^e4", "e2^e3", "e2^e4", "e3^e4", "2 e1^e3")
    return forced_complex(4, 5, [parse(t, amb) for t in texts])


def exterior_w3():
    return KoszulComplex(3, 7, [])


@pytest.mark.parametrize("make", [monomial_w5_r7_p7, k4_with_a_repeated_pair, exterior_w3])
def test_outside_the_symmetric_case_every_block_is_ranked(monkeypatch, make):
    c = make()
    expected = reference_block_dims(c)
    grade = koszul._grading(c)
    blocks = sum(
        1
        for d in range(c.top_degree + 1)
        for g in koszul._graded_basis(c, d, grade)
        if g in koszul._graded_basis(c, d + 1, grade)
    )
    calls = spy_orbit_path(monkeypatch)
    assert betti(c, with_representatives=False).dims == expected
    assert calls == {"orbit": 0, "rank": blocks}


def sorted_block_ranks(c):
    """rank(d_d) on every (d, mu) block of non-increasing mu that has a codomain, built from
    ``_graded_basis`` and ``_grading`` alone."""
    grade = koszul._grading(c)
    ranks = {}
    cod = koszul._graded_basis(c, 0, grade)
    for d in range(c.top_degree + 1):
        dom, cod = cod, koszul._graded_basis(c, d + 1, grade)
        for g, keys in dom.items():
            if g in cod and list(g) == sorted(g, reverse=True):
                ranks[d, g] = fplin.rank(koszul._block_matrix(c, keys, cod[g]))
    return ranks


def dual_block(c, d, mu):
    """The Poincare-dual block of (d, mu): degree w + r - 1 - d, multidegree (w - mu) reversed."""
    return c.top_degree - 1 - d, tuple(c.w - m for m in reversed(mu))


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: unp_complex(2, 5),
        lambda rng: unp_complex(4, 11),
        lambda rng: unp_complex(5, 3),
        lambda rng: unp_complex(5, 17),
        lambda rng: complete_monomial_complex(rng, 4, 3),
        lambda rng: complete_monomial_complex(rng, 4, 2147483647),
        lambda rng: complete_monomial_complex(rng, 5, 3),
        lambda rng: complete_monomial_complex(rng, 5, 2147483647),
    ],
    ids=["unp2_p5", "unp4_p11", "unp5_p3", "unp5_p17", "w4_p3", "w4_pmax", "w5_p3", "w5_pmax"],
)
def test_every_sorted_block_has_the_rank_of_its_poincare_dual(rng, make):
    c = make(rng)
    ranks = sorted_block_ranks(c)
    assert ranks
    for (d, mu), r in ranks.items():
        assert ranks.get(dual_block(c, d, mu)) == r, (d, mu)


def test_unp2_has_a_self_dual_block():
    c = unp_complex(2, 5)
    assert dual_block(c, 1, (1, 1)) == (1, (1, 1))
    assert sorted_block_ranks(c)[1, (1, 1)] == 1  # d(x_1) = e_1 e_2


def test_orbit_ranks_one_block_per_sorted_multidegree(monkeypatch):
    """U(5) ranks 76 of its 152 (degree, non-increasing multidegree) blocks, one per
    Poincare-dual pair, not all 3308."""
    c = unp_complex(5, 17)
    grade = koszul._grading(c)
    blocks = 0
    sorted_blocks = set()
    for d in range(c.top_degree + 1):
        cod = koszul._graded_basis(c, d + 1, grade)
        for g in koszul._graded_basis(c, d, grade):
            if g in cod:
                blocks += 1
                if list(g) == sorted(g, reverse=True):
                    sorted_blocks.add((d, g))
    self_dual = sum(dual_block(c, d, g) == (d, g) for d, g in sorted_blocks)
    assert (blocks, len(sorted_blocks), self_dual) == (3308, 152, 0)
    assert all(dual_block(c, d, g) in sorted_blocks for d, g in sorted_blocks)
    calls = spy_orbit_path(monkeypatch)
    betti(c, with_representatives=False)
    assert calls == {"orbit": 1, "rank": (len(sorted_blocks) + self_dual) // 2}


def test_unp6_ranks_match_oracle_quickly(monkeypatch):
    """U(6) ranks (696 sorted + 8 self-dual blocks) / 2 = 352 blocks."""
    c = unp_complex(6, 17)
    calls = spy_orbit_path(monkeypatch)
    start = time.perf_counter()
    dims = betti(c, with_representatives=False).dims
    assert time.perf_counter() - start < 20
    assert list(dims) == unp_betti(6)
    assert calls == {"orbit": 1, "rank": 352}
