import random
import time
import tracemalloc
import warnings
from itertools import combinations
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
from frattini.extalg import ExtElement, _basis_bits, _merge_sign
from frattini.younghook import unp_betti

from helpers import (
    multidegree,
    random_complex,
    reference_block_dims,
    reference_block_matrix,
    reference_differential,
    random_element,
    random_quadratic,
    reference_betti,
    reference_class_from_cocycle,
    reference_grade,
    reference_graded_basis,
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
    """Whether ``_grades`` codes the multidegree: e_i has code (r + 2)^i (always
    so at w = 1, where the weight is the multidegree)."""
    return koszul._grades(c, 1 << np.arange(c.w)).tolist() == [(c.r + 2) ** i for i in range(c.w)]


def block_matrix(c, dom, cod):
    """The matrix of d from the keys ``dom`` to the keys ``cod``, as ``koszul._blocks`` scatters it."""
    ids = np.array([x << c.w | e for e, x in [*dom, *cod]], dtype=np.int64)
    return next(koszul._blocks(c, ids, np.array([0, len(dom), ids.size]), [0], [1]))


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
        assert koszul._grades(c, np.array([1 << c.w | 1]))[0] == 3
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


def test_diff_term_sign_is_one_bit_count():
    """The sign of q = e_a e_b against e_S x_rem is the parity of the e's of S
    strictly between a and b: the merge sign, x bits lying above every e bit."""
    w, p = 7, 5
    amb = Ambient(w, 0, p)
    for a, b in combinations(range(w), 2):
        qe = 1 << a | 1 << b
        other = next(m for m in (0b11, 0b101) if m != qe)
        c = KoszulComplex(w, p, [ExtElement(amb, {(qe, 0): 1}), ExtElement(amb, {(other, 0): 1})])
        for s in range(1 << w):
            if s & qe:
                continue
            lead = -1 if s.bit_count() & 1 else 1  # x_1 is the first factor of x_1 x_2
            j, targets, vals = koszul._diff_triplets(c, np.array([0b11 << w | s]))
            (hit,) = np.flatnonzero(targets == 0b10 << w | qe | s)
            assert vals[hit] == lead * _merge_sign(qe, s | 0b10 << w), (a, b, s)


def monomial_complex(rng, w, p, r):
    """r single-monomial quadratics c e_a e_b over random pairs (repeats allowed), c in [2, p)."""
    amb = Ambient(w, 0, p)
    quads = []
    for _ in range(r):
        a, b = sorted(rng.sample(range(w), 2))
        quads.append(ExtElement(amb, {((1 << a) | (1 << b), 0): rng.randrange(2, p)}))
    return forced_complex(w, p, quads)


def seeded_complexes(seed):
    """Generic, monomial and forced (dependent) complexes at p = 3, 11 and 2^31 - 1,
    every coefficient drawn from [1, p) so most differ from 1."""
    rng = random.Random(seed)
    out = []
    for p in (3, 11, 2147483647):
        out.append(generic_complex(5, 3, p, seed=rng.randrange(10**6)))
        out.append(monomial_complex(rng, 5, p, 6))
        q = random_quadratic(rng, 4, p)
        out.append(forced_complex(4, p, [q, 2 * q, random_quadratic(rng, 4, p)]))
    return out


def layout_blocks(c):
    """Each block of ``koszul._layout`` as (degree, grade, its keys, the keys of its
    codomain block, the matrix of d between them that ``koszul._blocks`` scatters)."""
    ids, start, deg, grade, cod = koszul._layout(c)
    keys = [list(zip((b & (1 << c.w) - 1).tolist(), (b >> c.w).tolist())) for b in np.split(ids, start[1:-1])]
    mats = koszul._blocks(c, ids, start, np.arange(deg.size), cod)
    for k, m in enumerate(mats):
        yield int(deg[k]), int(grade[k]), keys[k], keys[cod[k]] if cod[k] >= 0 else [], m


@pytest.mark.parametrize("seed", [0, 1])
def test_block_matrix_and_differential_match_the_reference(seed):
    """The blocks of ``_layout`` are the reference grade buckets of every degree,
    in order; their matrices from ``_blocks``, ``differential_matrix`` and
    ``differential`` agree with the one-key-at-a-time reference d."""
    rng = random.Random(seed)
    for c in seeded_complexes(seed):
        assert any(v != 1 for q in c.quadratics for v in q._terms.values())
        for d in range(-1, c.top_degree + 2):
            dom = _basis_bits(c.w, c.r, d) if 0 <= d <= c.top_degree else ()
            cod = _basis_bits(c.w, c.r, d + 1) if 0 <= d + 1 <= c.top_degree else ()
            assert differential_matrix(c, d) == reference_block_matrix(c, dom, cod), (c, d)
        grade = reference_grade(c)
        buckets = [reference_graded_basis(c, d, grade) for d in range(c.top_degree + 2)]
        blocks = list(layout_blocks(c))
        assert [(d, g, keys) for d, g, keys, _, _ in blocks] == [
            (d, g, keys) for d in range(c.top_degree + 1) for g, keys in buckets[d].items()
        ]
        for d, g, keys, rows, m in blocks:
            assert rows == buckets[d + 1].get(g, []), (c, d, g)
            assert m == reference_block_matrix(c, keys, rows), (c, d, g)
        for _ in range(5):
            elem = random_element(rng, c.ambient, density=0.4)
            assert differential(c, elem) == reference_differential(c, elem), c
        assert differential(c, c.ambient.zero()).is_zero()


@pytest.mark.parametrize("seed", [0, 1])
def test_grades_match_the_reference(seed):
    """``_grades`` over every key equals the per-key reference grade, for the
    weight and the multidegree grading, at w = 0 and at r = 0 too."""
    rng = random.Random(seed)
    cases = seeded_complexes(seed) + [
        KoszulComplex(0, 5, []),
        KoszulComplex(rng.randint(1, 6), 7, []),
        forced_complex(0, 5, [Ambient(0, 0, 5).zero()] * 2),
        complete_monomial_complex(rng, 4, 11),
        weight_graded_w4_r2_p5(),
    ]
    for c in cases:
        ids = np.arange(1 << c.top_degree, dtype=np.int64)
        keys = zip((ids & (1 << c.w) - 1).tolist(), (ids >> c.w).tolist())
        assert koszul._grades(c, ids).tolist() == list(map(reference_grade(c), keys)), c
    weight = lambda c: any(len(q._terms) != 1 for q in c.quadratics)
    seen = {(weight(c), c.w == 0, c.r == 0) for c in cases}
    # the weight at w = 0 and at w, r > 0; the multidegree at r = 0 and at w, r > 0
    assert {(True, True, False), (True, False, False), (False, False, True), (False, False, False)} <= seen


def test_differential_sums_products_near_the_modulus_cap(rng):
    """Quadratic and element coefficients near p = 2^31 - 1, so that three
    products of one sign hitting one key would overflow int64 when summed:
    every product is reduced before the sum."""
    p = 2147483647
    amb = Ambient(4, 0, p)
    quads = [ExtElement(amb, {(eb, 0): rng.randrange(p - 10, p) for eb, _ in _basis_bits(4, 0, 2)}) for _ in range(4)]
    c = forced_complex(4, p, quads)
    for d in range(c.top_degree):
        elem = ExtElement(c.ambient, {key: rng.randrange(p - 10, p) for key in _basis_bits(4, 4, d)})
        assert differential(c, elem) == reference_differential(c, elem), d


def test_diff_triplets_chunks_agree_with_one_pass(monkeypatch):
    """A pair budget of one key per chunk gives the triplets of the single pass."""
    c = generic_complex(5, 4, 7, seed=11)
    ids = np.array([x << 5 | e for e, x in _basis_bits(5, 4, 4)], dtype=np.int64)
    whole = koszul._diff_triplets(c, ids)
    monkeypatch.setattr(koszul, "_PAIR_CHUNK", 1)
    chunked = koszul._diff_triplets(c, ids)
    assert whole[0].size > 0 and all(np.array_equal(a, b) for a, b in zip(whole, chunked))


def generic_complex(w, r, p, seed):
    rng = random.Random(seed)
    while True:
        try:
            return KoszulComplex(w, p, [random_quadratic(rng, w, p) for _ in range(r)])
        except DependentQuadratics:
            continue


def reference_shapes(c):
    """(degree, R, C) of every block d maps from, R = 0 where its grade has no
    keys in the next degree, in the order ``betti`` walks them."""
    grade = reference_grade(c)
    buckets = [reference_graded_basis(c, d, grade) for d in range(c.top_degree + 2)]
    return [
        (d, len(buckets[d + 1].get(g, ())), len(keys)) for d in range(c.top_degree + 1) for g, keys in buckets[d].items()
    ]


def test_block_guard_refuses_one_byte_over_the_cap_before_allocating(monkeypatch):
    """At the estimate of the complex's largest block, ``betti`` builds that
    block; one byte under it, ``betti`` refuses it, naming its degree and shape,
    before it allocates any block."""
    c = generic_complex(4, 3, 7, 43)
    d, rows, cols = max(reference_shapes(c), key=lambda s: fplin.check_block(s[1], s[2], "probe"))
    assert (d, rows, cols) == (4, 3, 18)
    need = fplin.check_block(rows, cols, "probe")
    monkeypatch.setattr(fplin, "BLOCK_CAP", need)
    built, blocks = [], koszul._blocks
    monkeypatch.setattr(koszul, "_blocks", lambda *args: (built.append(m.entries.shape) or m for m in blocks(*args)))
    betti(c)
    assert (rows, cols) in built

    def refuse(*args, **kwargs):
        raise AssertionError("block allocated before the guard")

    monkeypatch.setattr(fplin, "BLOCK_CAP", need - 1)
    monkeypatch.setattr(koszul, "_blocks", refuse)
    message = f"^degree {d}: a dense {rows} x {cols} block needs up to {need} bytes; capped at {need - 1}$"
    with pytest.raises(fplin.BudgetExceeded, match=message):
        betti(c)


@pytest.mark.parametrize(
    "make",
    [lambda: generic_complex(4, 3, 7, 43), lambda: monomial_w5_r7_p7(), lambda: weight_graded_w4_r2_p5()],
    ids=["generic", "monomial", "weight"],
)
def test_the_guard_checks_the_walked_blocks_in_walk_order(monkeypatch, make):
    """``betti`` checks every block with representatives and, ranks only, every
    block with codomain keys: by degree, and within a degree in the order of
    each grade's first key."""
    c = make()
    checked, check = [], fplin.check_block

    def spy(rows, cols, where):
        checked.append((int(where.removeprefix("degree ")), rows, cols))
        return check(rows, cols, where)

    monkeypatch.setattr(fplin, "check_block", spy)
    betti(c)
    assert checked == reference_shapes(c)
    checked.clear()
    betti(c, with_representatives=False)
    assert checked == [s for s in reference_shapes(c) if s[1]]


def count_eliminations(monkeypatch):
    """Count every ``fplin._echelon`` call."""
    calls = [0]
    echelon = fplin._echelon

    def counted(*args, **kwargs):
        calls[0] += 1
        return echelon(*args, **kwargs)

    monkeypatch.setattr(fplin, "_echelon", counted)
    return calls


def largest_estimate(monkeypatch, run):
    """The largest ``fplin.check_block`` estimate among the blocks ``run`` checks."""
    needs, check = [], fplin.check_block
    monkeypatch.setattr(fplin, "check_block", lambda *args: needs.append(check(*args)) or needs[-1])
    run()
    monkeypatch.setattr(fplin, "check_block", check)
    return max(needs)


@pytest.mark.parametrize(
    "make", [lambda: generic_complex(4, 3, 7, 43), lambda: unp_complex(4, 7)], ids=["generic", "u4"]
)
@pytest.mark.parametrize("with_representatives", [True, False])
def test_a_refusal_eliminates_nothing(monkeypatch, make, with_representatives):
    """With the cap one byte under the complex's largest block, ``betti`` raises
    before its first elimination: every block, of every degree, is checked
    first (ranks only on U(4) is the orbit path)."""
    c = make()
    run = lambda: betti(c, with_representatives=with_representatives)
    monkeypatch.setattr(fplin, "BLOCK_CAP", largest_estimate(monkeypatch, run) - 1)
    calls = count_eliminations(monkeypatch)
    with pytest.raises(fplin.BudgetExceeded):
        run()
    assert calls[0] == 0


def test_block_estimate_bounds_the_elimination_peak():
    """Each block is eliminated with representatives as ``betti`` does, its
    incoming boundaries already held; tracemalloc's peak stays within the
    estimate for blocks of at least 20,000 cells with R < C, R > C and R = 0."""
    c = generic_complex(5, 8, 13, 58)
    grade = reference_grade(c)
    seen, incoming = {}, {}
    cod = reference_graded_basis(c, 0, grade)
    for d in range(c.top_degree + 1):
        dom, cod = cod, reference_graded_basis(c, d + 1, grade)
        outgoing = {}
        for g, keys in dom.items():
            rows = cod.get(g, ())
            shape = "R = 0" if not rows else "R < C" if len(rows) < len(keys) else "R > C"
            tracemalloc.start()
            try:
                bnd = incoming.get(g, np.zeros((0, len(keys)), dtype=np.int64)).copy()
                tracemalloc.reset_peak()
                m = block_matrix(c, keys, rows)
                ker, free, piv = fplin._kernel(m)
                outgoing[g] = m.entries[:, piv].T
                fplin._quotient_pairs(ker, ker, free, bnd, c.p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if len(keys) * (len(rows) + len(keys)) >= 20000:  # arrays, not Python objects, dominate
                assert peak <= fplin.check_block(len(rows), len(keys), "probe"), (d, g, len(rows), len(keys), peak)
                seen[shape] = seen.get(shape, 0) + 1
        incoming = outgoing
    assert set(seen) == {"R = 0", "R < C", "R > C"}, seen


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
                    assert list(cup(a, b).representative.terms()) == list(want.terms())
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
    grade = reference_grade(c)
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
            assert list(table.class_from_cocycle(z).representative.terms()) == list(want.terms())
    assert spread >= 5


def spy_eliminations(monkeypatch):
    """Count every ``fplin._echelon`` call and make ``fplin.solve`` raise."""

    def refuse(*args):
        raise AssertionError("fplin.solve called")

    monkeypatch.setattr(fplin, "solve", refuse)
    return count_eliminations(monkeypatch)


@pytest.mark.parametrize("make", [lambda: unp_complex(3, 7), generic_w5_r3_p7], ids=["u3", "generic"])
def test_each_block_eliminated_at_most_twice_and_cups_eliminate_nothing(monkeypatch, make, rng):
    c = make()
    grade = reference_grade(c)
    blocks = sum(len(reference_graded_basis(c, d, grade)) for d in range(c.top_degree + 1))
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
    grade = reference_grade(c)
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


@pytest.mark.parametrize(
    "make", [lambda: unp_complex(3, 7), generic_w5_r3_p7, weight_graded_w4_r2_p5], ids=["u3", "generic", "weight-w4"]
)
def test_class_from_cocycle_checks_d_and_fixes_representatives(make, rng):
    """A cocycle spread over several grades plus one monomial with d != 0, in
    a grade the cocycle misses, is rejected; every representative is its own
    normal form."""
    c = make()
    table = betti(c)
    grade = reference_grade(c)
    rejected = 0
    for d in range(1, c.top_degree + 1):
        z = differential(c, random_element(rng, c.ambient, d - 1, density=0.5))
        for r in table.representatives[d]:
            z = z + rng.randrange(1, c.p) * r
        grades = {grade(key) for key in z._terms}
        outside = [
            key for key in _basis_bits(c.w, c.r, d)
            if grade(key) not in grades and not differential(c, ExtElement(c.ambient, {key: 1})).is_zero()
        ]
        if len(grades) < 2 or not outside:
            continue
        bad = z + ExtElement(c.ambient, {rng.choice(outside): rng.randrange(1, c.p)})
        with pytest.raises(NotACocycle, match=r"^d\(.*\) != 0$"):
            table.class_from_cocycle(bad)
        rejected += 1
    assert rejected >= 2
    for d, reps in enumerate(table.representatives):
        for r in reps:
            assert table.class_from_cocycle(r, degree=d).representative == r


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
    grade = reference_grade(c)
    blocks = sum(
        1
        for d in range(c.top_degree + 1)
        for g in reference_graded_basis(c, d, grade)
        if g in reference_graded_basis(c, d + 1, grade)
    )
    calls = spy_orbit_path(monkeypatch)
    assert betti(c, with_representatives=False).dims == expected
    assert calls == {"orbit": 0, "rank": blocks}


def sorted_block_ranks(c):
    """rank(d_d) on every (d, mu) block of non-increasing mu that has a codomain, built from
    ``reference_graded_basis`` and ``reference_grade`` alone."""
    grade = reference_grade(c)
    ranks = {}
    cod = reference_graded_basis(c, 0, grade)
    for d in range(c.top_degree + 1):
        dom, cod = cod, reference_graded_basis(c, d + 1, grade)
        for g, keys in dom.items():
            mu = multidegree(c, g)
            if g in cod and list(mu) == sorted(mu, reverse=True):
                ranks[d, mu] = fplin.rank(block_matrix(c, keys, cod[g]))
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
    grade = reference_grade(c)
    blocks = 0
    sorted_blocks = set()
    for d in range(c.top_degree + 1):
        cod = reference_graded_basis(c, d + 1, grade)
        for g in reference_graded_basis(c, d, grade):
            if g in cod:
                blocks += 1
                mu = multidegree(c, g)
                if list(mu) == sorted(mu, reverse=True):
                    sorted_blocks.add((d, mu))
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


@pytest.mark.parametrize("p", [11, 131, 32771])
def test_representatives_do_not_depend_on_the_elimination_width(monkeypatch, p):
    """Results are unique, so eliminating in int64 at every p gives the same
    representatives, boundary normal forms and cup products as ``_width(p)``."""
    c = generic_complex(5, 4, p, seed=7)

    def run():
        t = betti(c)
        classes = [t.classes(d) for d in range(c.top_degree + 1)]
        cups = [str(cup(a, b)) for a in classes[1] for b in classes[2]]
        return t.dims, t.representatives, cups, [
            {g: (keys.tolist(), rref.tolist(), piv) for g, (keys, rref, piv) in blocks.items()} for blocks in t._matrices
        ]

    narrow = run()
    monkeypatch.setattr(fplin, "_width", lambda p: np.dtype(np.int64))
    assert run() == narrow
    assert narrow[1][2] and narrow[2]


def test_betti_representatives_take_their_terms_in_one_step():
    """Representatives come from the trusted constructor: residues in [1, p) over
    basis keys, in the order of the block's keys, equal to validated elements."""
    c = generic_complex(5, 3, 11, seed=3)
    t = betti(c)
    for d, reps in enumerate(t.representatives):
        keys = set(_basis_bits(c.w, c.r, d))
        for z in reps:
            assert z == ExtElement(c.ambient, z._terms)
            assert all(type(v) is int and 1 <= v < 11 for v in z._terms.values())
            assert set(z._terms) <= keys
