from fractions import Fraction
from math import comb

import pytest

from frattini.younghook import (
    SelfConjugatePartition,
    _conjugate,
    _distinct_odd,
    _fold,
    _row_bounded,
    closed_form,
    enumerate_self_conjugate,
    hook_content_dimension,
    unp_betti,
)


def test_conjugate():
    assert _conjugate((3, 1, 1)) == (3, 1, 1)
    assert _conjugate((2,)) == (1, 1)
    assert _conjugate(()) == ()


def test_self_conjugate_validation():
    sc = SelfConjugatePartition((3, 1, 1))
    assert sc.size == 5 and sc.diagonal == 1
    assert SelfConjugatePartition((2, 2)).diagonal == 2
    with pytest.raises(ValueError):
        SelfConjugatePartition((2,))
    with pytest.raises(ValueError):
        SelfConjugatePartition((1, 2))
    with pytest.raises(ValueError):
        SelfConjugatePartition((1, 0))


def test_distinct_odd_fold_bijection():
    # distinct odd parts <-> self-conjugate, diagonal = number of parts
    for size in range(13):
        for diag in range(4):
            folded = [_fold(o) for o in _distinct_odd(size, diag, size)]
            direct = enumerate_self_conjugate(size, diag)
            assert sorted(folded, reverse=True) == [sc.parts for sc in direct]
            for sc in direct:
                assert sc.size == size and sc.diagonal == diag


def test_enumerate_golden():
    assert [sc.parts for sc in enumerate_self_conjugate(4, 2)] == [(2, 2)]
    assert [sc.parts for sc in enumerate_self_conjugate(5, 1)] == [(3, 1, 1)]
    assert [sc.parts for sc in enumerate_self_conjugate(6, 2)] == [(3, 2, 1)]
    assert enumerate_self_conjugate(2, 1) == []
    assert [sc.parts for sc in enumerate_self_conjugate(0, 0)] == [()]


def test_hook_content_known_values():
    assert hook_content_dimension(SelfConjugatePartition(()), 3) == 1
    assert hook_content_dimension(SelfConjugatePartition((1,)), 4) == 4
    # staircase (2,1) hooks: 3,1,1; contents: n, n+1, n-1
    sc = SelfConjugatePartition((2, 1))
    assert hook_content_dimension(sc, 3) == 3 * 4 * 2 // 3
    # more rows than n kills the diagram
    assert hook_content_dimension(SelfConjugatePartition((2, 2)), 1) == 0


def test_hook_content_is_integral_over_range():
    for n in range(1, 6):
        for size in range(10):
            for diag in range(4):
                for sc in enumerate_self_conjugate(size, diag):
                    assert hook_content_dimension(sc, n) >= 0


def test_unp_betti_small_n():
    assert unp_betti(1) == [1, 1]
    assert unp_betti(2) == [1, 2, 2, 1]
    assert unp_betti(3) == [1, 3, 8, 12, 8, 3, 1]
    assert unp_betti(4) == [1, 4, 20, 56, 84, 90, 84, 56, 20, 4, 1]


def test_unp_betti_properties():
    for n in range(1, 6):
        a = unp_betti(n)
        assert len(a) == comb(n + 1, 2) + 1
        assert a == a[::-1]
        assert sum((-1) ** i * c for i, c in enumerate(a)) == 0
        assert a[0] == 1 and a[1] == n


def reference_unp_betti(n):
    """``unp_betti`` over every self-conjugate diagram, pruned or not, each
    hook-content product accumulated cell by cell as a Fraction."""
    m = comb(n + 1, 2)
    out = []
    for i in range(m + 1):
        total = Fraction(0)
        for f in range(i + 1):
            for sc in enumerate_self_conjugate(f + 2 * (i - f), f):
                conj, acc = _conjugate(sc.parts), Fraction(1)
                for s, row_len in enumerate(sc.parts, 1):
                    for t in range(1, row_len + 1):
                        acc *= Fraction(n + t - s, (row_len - t) + (conj[t - 1] - s) + 1)
                total += acc
        assert total.denominator == 1
        out.append(int(total))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_pruned_unp_betti_equals_the_full_enumeration(n):
    assert unp_betti(n) == reference_unp_betti(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_pruned_diagrams_are_exactly_those_with_at_most_n_rows(n):
    m = comb(n + 1, 2)
    for i in range(m + 1):
        for f in range(i + 1):
            size = f + 2 * (i - f)
            pruned = list(_row_bounded(size, f, n))
            assert all(len(parts) <= n for parts in pruned)
            full = [sc.parts for sc in enumerate_self_conjugate(size, f)]
            assert sorted(pruned) == sorted(parts for parts in full if len(parts) <= n)
            assert all(hook_content_dimension(SelfConjugatePartition(parts), n) == 0
                       for parts in full if len(parts) > n)


def test_unp_betti_cap():
    with pytest.raises(ValueError):
        unp_betti(9)
    with pytest.raises(ValueError):
        unp_betti(0)


def test_closed_forms():
    for n in range(1, 7):
        a = unp_betti(n)
        for i in range(min(3, len(a) - 1) + 1):
            assert closed_form(n, i) == a[i]
    assert closed_form(4, 2) == 20
    assert closed_form(4, 3) == 56
    with pytest.raises(ValueError):
        closed_form(3, 4)
