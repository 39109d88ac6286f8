import numpy as np
import pytest

from frattini import fplin
from frattini.fplin import (
    BoundaryNotCycle,
    FpMatrix,
    Prime,
    as_prime,
    kernel_basis,
    quotient_representatives,
    rank,
    rref,
    solve,
)

from helpers import (
    _Echelon,
    reference_is_prime,
    reference_kernel_basis,
    reference_quotient_representatives,
    reference_rref,
)


def test_prime_accepts_odd_primes():
    assert Prime(3) == 3
    assert Prime(46337) == 46337
    assert isinstance(as_prime(7), Prime)
    assert as_prime(as_prime(5)) == 5


@pytest.mark.parametrize("bad", [2, 1, 0, -3, 9, 15, 1023, 2**31 + 11])
def test_prime_rejects(bad):
    with pytest.raises(ValueError):
        Prime(bad)


def test_is_prime_matches_trial_division_below_200000():
    assert [fplin._is_prime(n) for n in range(-5, 200_000)] == [reference_is_prime(n) for n in range(-5, 200_000)]


@pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 2**31 - 1])
def test_is_prime_on_strong_pseudoprimes_and_the_cap(n):
    """Composites that pass the strong test to some of the bases 2, 3, 5 and 7
    (2047 to base 2, 1373653 to bases 2 and 3, 25326001 to 2, 3 and 5), and
    the largest prime below the 2**31 cap."""
    assert fplin._is_prime(n) == reference_is_prime(n) == (n == 2**31 - 1)


def test_matrix_reduces_entries_and_is_readonly():
    m = FpMatrix([[7, -1], [3, 10]], 5)
    assert m.entries.tolist() == [[2, 4], [3, 0]]
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1


def test_matrix_shapes():
    assert FpMatrix.zeros(2, 3, 5).cols == 3
    assert FpMatrix.identity(4, 7) == FpMatrix(np.eye(4, dtype=np.int64), 7)
    empty = FpMatrix(np.zeros((0, 5), dtype=np.int64), 3)
    assert empty.rows == 0 and empty.cols == 5
    with pytest.raises(ValueError):
        FpMatrix([1, 2, 3], 5)


def test_rank_known_cases():
    assert rank(FpMatrix.identity(3, 5)) == 3
    assert rank(FpMatrix.zeros(4, 2, 5)) == 0
    # second row is 3x the first mod 5
    assert rank(FpMatrix([[1, 2], [3, 6]], 5)) == 1
    assert rank(FpMatrix([[1, 2], [3, 7]], 5)) == 2


def test_rref_pivots_and_idempotence():
    m = FpMatrix([[2, 4, 1], [1, 2, 4]], 5)
    red, piv = rref(m)
    assert piv == [0, 2]
    again, piv2 = rref(red)
    assert again == red and piv2 == piv
    # pivot columns are unit vectors
    e = red.entries
    assert e[:, 0].tolist() == [1, 0]
    assert e[:, 2].tolist() == [0, 1]


def test_kernel_basis_annihilates_and_counts(rng):
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        m = FpMatrix(np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]).reshape(rows, cols), p)
        ker = kernel_basis(m)
        assert len(ker) == cols - rank(m)
        for v in ker:
            assert not (m.entries @ v % p).any()


def test_kernel_basis_is_canonical():
    # x + 2y = 0 over F_5: free column 1, kernel vector (-2, 1) = (3, 1)
    ker = kernel_basis(FpMatrix([[1, 2]], 5))
    assert [v.tolist() for v in ker] == [[3, 1]]


def test_solve_roundtrip(rng):
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = FpMatrix(np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]), p)
        x = np.array([rng.randrange(p) for _ in range(cols)])
        b = a.entries @ x % p
        got = solve(a, b)
        assert got is not None
        assert (a.entries @ got % p).tolist() == b.tolist()


def test_solve_inconsistent():
    a = FpMatrix([[1, 2], [2, 4]], 5)
    assert solve(a, [1, 3]) is None
    assert solve(a, [1, 2]) is not None


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve(FpMatrix([[1, 0]], 5), [1, 2])


def test_quotient_representatives_basic():
    reps = quotient_representatives([[1, 0], [0, 1]], [[1, 1]], 5)
    assert len(reps) == 1
    assert reps[0].any()


def test_quotient_representatives_full_boundary():
    reps = quotient_representatives([[1, 0], [0, 1]], [[1, 0], [0, 1]], 5)
    assert reps == []


def test_quotient_representatives_rejects_bad_boundary():
    with pytest.raises(BoundaryNotCycle):
        quotient_representatives([[0, 1]], [[1, 0]], 5)


def test_quotient_representatives_counts(rng):
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        cycles = [np.array([rng.randrange(p) for _ in range(n)]) for _ in range(rng.randint(0, 2 * n))]
        # boundaries: random combinations of the cycles
        boundaries = []
        for _ in range(k):
            acc = np.zeros(n, dtype=np.int64)
            for v in cycles:
                acc = (acc + rng.randrange(p) * v) % p
            boundaries.append(acc)
        reps = quotient_representatives(cycles, boundaries, p)
        dim_c = rank(FpMatrix(np.array(cycles).reshape(-1, n), p))
        dim_b = rank(FpMatrix(np.array(boundaries).reshape(-1, n), p))
        assert len(reps) == dim_c - dim_b


PRIMES = (3, 7, 2147483647)


def _random_vectors(rng, p, n, count):
    """Random vectors with zero and repeated ones mixed in."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            out.append(np.zeros(n, dtype=np.int64))
        elif roll < 0.3 and out:
            out.append(rng.choice(out).copy())
        else:
            out.append(np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64))
    return out


def _combinations(rng, p, vectors, n, count):
    """Random linear combinations of ``vectors`` (zero when there are none)."""
    out = []
    for _ in range(count):
        acc = np.zeros(n, dtype=np.int64)
        for v in vectors:
            if rng.random() < 0.5:
                acc = (acc + rng.randrange(p) * v) % p
        out.append(acc)
    return out


def _as_lists(vectors):
    return [v.tolist() for v in vectors]


def test_quotient_representatives_match_reference(rng):
    for _ in range(300):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 12)
        cycles = _random_vectors(rng, p, n, rng.randint(0, 2 * n))
        spanning = cycles[:rng.randint(0, len(cycles))]
        boundaries = _combinations(rng, p, spanning, n, rng.randint(0, n + 2))
        if boundaries and rng.random() < 0.3:
            boundaries.append(boundaries[0].copy())
        got = quotient_representatives(cycles, boundaries, p)
        want = reference_quotient_representatives(cycles, boundaries, p)
        assert _as_lists(got) == _as_lists(want), (p, n)
        assert all(v.dtype == np.int64 for v in got)


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_representatives_empty_lists(p):
    z = np.zeros(4, dtype=np.int64)
    assert quotient_representatives([], [], p) == []
    assert quotient_representatives([], [z, z], p) == []
    cycles = [np.array([0, 2, 1, 0]), z, np.array([0, 4, 2, 0])]
    assert _as_lists(quotient_representatives(cycles, [], p)) == _as_lists(
        reference_quotient_representatives(cycles, [], p)
    )
    with pytest.raises(BoundaryNotCycle, match="boundary 1 "):
        quotient_representatives([], [z, np.array([0, 0, 1, 0])], p)


def test_quotient_representatives_same_boundary_not_cycle_index(rng):
    for _ in range(100):
        p = rng.choice(PRIMES)
        n = rng.randint(2, 12)
        cycles = _random_vectors(rng, p, n, rng.randint(0, n - 1))
        boundaries = _combinations(rng, p, cycles, n, rng.randint(0, 4))
        for _ in range(rng.randint(1, 3)):
            # a vector off span(cycles), which has dimension below n
            outside = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            while not reference_quotient_representatives(cycles + [outside], cycles, p):
                outside = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            boundaries.insert(rng.randint(0, len(boundaries)), outside)
        with pytest.raises(BoundaryNotCycle) as want:
            reference_quotient_representatives(cycles, boundaries, p)
        with pytest.raises(BoundaryNotCycle) as got:
            quotient_representatives(cycles, boundaries, p)
        assert str(got.value) == str(want.value)


def test_kernel_basis_matches_reference(rng):
    for _ in range(100):
        p = rng.choice(PRIMES)
        rows, cols = rng.randint(0, 8), rng.randint(0, 12)
        m = FpMatrix(np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]).reshape(rows, cols), p)
        assert _as_lists(kernel_basis(m)) == _as_lists(reference_kernel_basis(m))


# -- the quotient core given the cycles' echelon basis ------------------------


def _low_rank_matrix(rng, p, rows, cols):
    """A rows x cols matrix whose rows are random combinations of a few random
    vectors, so its rank is often below both of its sides."""
    basis = _random_vectors(rng, p, cols, rng.randint(0, min(rows, cols)))
    return np.array(_combinations(rng, p, basis, cols, rows), dtype=np.int64).reshape(rows, cols)


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_core_with_kernel_echelon_matches_public(rng, p):
    for _ in range(60):
        cols = rng.randint(1, 10)
        m = FpMatrix(_low_rank_matrix(rng, p, rng.randint(0, 8), cols), p)
        ker, free, piv = fplin._kernel(m)
        assert _as_lists(ker) == _as_lists(kernel_basis(m))
        assert piv == rref(m)[1] and free.tolist() == [c for c in range(cols) if c not in piv]
        boundaries = _combinations(rng, p, list(ker), cols, rng.randint(0, cols + 2))
        bnd = np.array(boundaries, dtype=np.int64).reshape(-1, cols)
        before = ker.copy()
        pairs, bnd_rref, bnd_pivots = fplin._quotient_pairs(ker, ker, free, bnd, p)
        assert np.array_equal(ker, before)
        assert _as_lists([v for _, v in pairs]) == _as_lists(quotient_representatives(list(ker), boundaries, p))
        full, full_pivots = rref(FpMatrix(bnd, p))
        assert bnd_pivots == full_pivots
        assert bnd_rref.tolist() == full.entries[:len(full_pivots)].tolist()


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_core_with_kernel_echelon_names_the_boundary_not_cycle(rng, p):
    checked = 0
    for _ in range(60):
        cols = rng.randint(2, 10)
        m = FpMatrix(np.array(_random_vectors(rng, p, cols, rng.randint(1, 6))), p)
        ker, free, _ = fplin._kernel(m)
        if len(free) == cols:  # m is zero: every vector is a cycle
            continue
        boundaries = _combinations(rng, p, list(ker), cols, rng.randint(0, 4))
        outside = np.array([rng.randrange(p) for _ in range(cols)], dtype=np.int64)
        while not reference_quotient_representatives(list(ker) + [outside], list(ker), p):
            outside = np.array([rng.randrange(p) for _ in range(cols)], dtype=np.int64)
        boundaries.insert(rng.randint(0, len(boundaries)), outside)
        with pytest.raises(BoundaryNotCycle) as want:
            reference_quotient_representatives(list(ker), boundaries, p)
        with pytest.raises(BoundaryNotCycle) as got:
            fplin._quotient_pairs(ker, ker, free, np.array(boundaries, dtype=np.int64), p)
        assert str(got.value) == str(want.value)
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("p", PRIMES)
def test_rref_of_pivot_columns_equals_rref_of_all_columns(rng, p):
    """The row space of a matrix's columns is spanned by its pivot columns, and
    an RREF is unique, so both give the same RREF: why the boundary stack may
    keep only the pivot columns of the previous block."""
    for _ in range(60):
        a = _low_rank_matrix(rng, p, rng.randint(0, 8), rng.randint(0, 10))
        _, piv = rref(FpMatrix(a, p))
        all_rref, all_pivots = rref(FpMatrix(a.T, p))
        piv_rref, piv_pivots = rref(FpMatrix(a[:, piv].T, p))
        assert piv_pivots == all_pivots
        assert piv_rref.entries.tolist() == all_rref.entries[:len(piv)].tolist()


# -- reduction against a non-reduced echelon basis ----------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_rows_against_non_reduced_echelon(rng, p):
    """A non-reduced echelon basis has nonzeros above its later pivots; it is 0
    only at the pivots of earlier rows, which is all the ascending loop needs."""
    for _ in range(60):
        cols = rng.randint(1, 10)
        a = _low_rank_matrix(rng, p, rng.randint(0, 8), cols)
        basis, pivots = fplin._echelon(a, p, reduced=False)
        span = _Echelon(p)
        for v in a:
            span.add(v)
        inside = _combinations(rng, p, list(a), cols, rng.randint(0, 4))
        w = np.array(inside + _random_vectors(rng, p, cols, rng.randint(0, 4)), dtype=np.int64).reshape(-1, cols)
        before = w.copy()
        out = fplin._reduce_rows(w, basis, pivots, p)
        assert out is w
        assert not w[:, pivots].any()
        assert ((w >= 0) & (w < p)).all()
        for v, reduced in zip(before, w):
            assert reduced.any() == span.reduce(v).any()


# -- the delayed-reduction budget ---------------------------------------------

SMALL_BUDGET_PRIMES = (1_000_000_007, 2147483647)


def test_budget():
    int64 = np.dtype(np.int64)
    assert fplin._budget(1_000_000_007, int64) == 8
    assert fplin._budget(2147483647, int64) == 1
    assert fplin._budget(11, int64) > 1 << 50
    for p in (3, 11, 46337, 1_000_000_007, 1_500_000_001, 1_750_000_027, 2147483629, 2147483647):
        b = fplin._budget(Prime(p), int64)
        assert b >= 1
        # b updates from a residue, and one more for margin, stay inside int64
        assert (b + 1) * (p - 1) ** 2 + p <= 2**63 - 1


def _worst_case(p, m, n):
    """An m x n matrix L @ [U | V] mod p: L unit lower triangular and U unit upper
    triangular, both -1 off the diagonal, and V all -1.  Its elimination without
    row swaps meets multiplier p - 1 and pivot-row entries p - 1 at every step,
    so each update subtracts the most, (p - 1)**2, and row i takes i of them."""
    lower = np.tril(np.full((m, m), -1), -1) + np.eye(m, dtype=np.int64)
    upper = np.triu(np.full((m, m), -1), 1) + np.eye(m, dtype=np.int64)
    return (lower @ np.concatenate([upper, np.full((m, n - m), -1)], axis=1)) % p


def _small_budget_cases(p):
    """(name, computed, reference) for every public elimination on worst-case
    inputs with more pivots than the budget allows unreduced updates."""
    m, n = 16, 20
    a = _worst_case(p, m, n)
    stacked = FpMatrix(np.concatenate([a, (a[:-1] + a[1:]) % p]), p)
    # boundaries: an RREF that is p - 1 on its free columns; every cycle is p - 1
    # on the pivots, so reducing it subtracts (p - 1)**2 m times, and what is left
    # is ``a``, whose forward pass is the worst case again
    bnd = np.concatenate([np.eye(m, dtype=np.int64), np.full((m, n), p - 1)], axis=1)
    cyc = np.concatenate([bnd, np.concatenate([np.full((m, m), p - 1), (a + m) % p], axis=1)])
    got_red, got_piv = rref(stacked)
    red, piv = reference_rref(stacked)
    return [
        ("rank", rank(stacked), len(piv)),
        ("rref", (got_red.entries.tolist(), got_piv), (red, piv)),
        ("kernel_basis", _as_lists(kernel_basis(stacked)), _as_lists(reference_kernel_basis(stacked))),
        ("quotient_representatives", _as_lists(quotient_representatives(list(cyc), list(bnd), p)),
         _as_lists(reference_quotient_representatives(list(cyc), list(bnd), p))),
    ]


# both sides of both elimination-width switches, and p = 257, where int16 could
# not hold one update
WIDTH_SWITCH_PRIMES = (127, 131, 257, 32749, 32771)


@pytest.mark.parametrize("p", SMALL_BUDGET_PRIMES + WIDTH_SWITCH_PRIMES)
def test_small_budgets_match_references(p):
    for name, got, want in _small_budget_cases(p):
        assert got == want, name


@pytest.mark.parametrize("p", SMALL_BUDGET_PRIMES)
def test_small_budget_cases_overflow_without_mid_loop_reduction(p, monkeypatch):
    """Reducing only at the end of each loop gets every case wrong: the cases
    above really need the mid-loop reduction."""
    monkeypatch.setattr(fplin, "_budget", lambda p, dtype: 1 << 62)
    for name, got, want in _small_budget_cases(p):
        assert got != want, name


# -- the elimination width -----------------------------------------------------

WIDTH_SWITCHES = {127: np.int16, 131: np.int32, 32749: np.int32, 32771: np.int64}


def test_width_at_both_sides_of_both_switches():
    assert {p: fplin._width(p) for p in WIDTH_SWITCHES} == {p: np.dtype(t) for p, t in WIDTH_SWITCHES.items()}


@pytest.mark.parametrize("p", (3, 11, 89, 113, 127, 131, 257, 46337, 32749, 32771, 1_000_000_007, 2147483647))
def test_width_is_the_narrowest_with_a_budget(p):
    """The width holds 2 (p - 1)**2 + p, exactly the condition for a budget of at
    least one update; a narrower width has none."""
    t = fplin._width(p)
    assert fplin._budget(p, t) >= 1
    assert (fplin._budget(p, t) + 1) * (p - 1) ** 2 + p <= np.iinfo(t).max
    narrower = [u for u in (np.int16, np.int32, np.int64) if np.dtype(u).itemsize < t.itemsize]
    assert all(fplin._budget(p, np.dtype(u)) < 1 for u in narrower)


def test_budget_in_int16_at_p_11():
    assert fplin._budget(11, np.dtype(np.int16)) == 326
    assert fplin._budget(127, np.dtype(np.int16)) == 1
    assert fplin._budget(32749, np.dtype(np.int32)) == 1


def test_prime_modulus_keeps_every_update_in_the_width(monkeypatch):
    """NumPy 2 takes only an exact int as a weak scalar: a ``Prime`` left in an
    expression promotes an int16 array to int64.  Every kernel entry point gets
    a ``Prime`` here, and every update it makes must stay in int16."""
    seen = set()
    update = fplin._update

    def spy(x, rows, f, row, p, pending):
        seen.add((x.dtype, f.dtype, row.dtype, type(p)))
        return update(x, rows, f, row, p, pending)

    monkeypatch.setattr(fplin, "_update", spy)
    p = Prime(11)
    a = _worst_case(11, 16, 20)
    assert fplin._echelon(a, p, True)[0].dtype == np.int16
    assert fplin._echelon(a, p, False)[0].dtype == np.int16
    ker, free, piv = fplin._kernel(FpMatrix(a, p))
    assert ker.dtype == np.int16
    reps, bnd_rref, _ = fplin._quotient_pairs(ker, ker, free, ker[:2] * 3 % 11, p)
    assert bnd_rref.dtype == np.int16 and all(v.dtype == np.int16 for _, v in reps)
    w = np.array(_worst_case(11, 6, 20), dtype=np.int16)
    assert fplin._reduce_rows(w, *fplin._echelon(a, p, False), p) is w
    assert len(seen) > 0 and seen == {(np.dtype(np.int16),) * 3 + (int,)}


def test_public_results_stay_int64_in_a_narrow_width():
    p = 11
    a = _worst_case(p, 6, 9)
    m = FpMatrix(a, p)
    assert fplin._width(p) == np.int16
    assert rref(m)[0].entries.dtype == np.int64
    assert all(v.dtype == np.int64 for v in kernel_basis(m))
    assert solve(m, a[:, 0]).dtype == np.int64
    assert all(v.dtype == np.int64 for v in quotient_representatives(list(a.T[:3]), [], p))
