import numpy as np
import pytest

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

from helpers import reference_kernel_basis, reference_quotient_representatives


def test_prime_accepts_odd_primes():
    assert Prime(3) == 3
    assert Prime(46337) == 46337
    assert isinstance(as_prime(7), Prime)
    assert as_prime(as_prime(5)) == 5


@pytest.mark.parametrize("bad", [2, 1, 0, -3, 9, 15, 1023, 2**31 + 11])
def test_prime_rejects(bad):
    with pytest.raises(ValueError):
        Prime(bad)


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
