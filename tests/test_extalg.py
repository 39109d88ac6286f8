import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frattini.extalg import (
    Ambient,
    AmbientMismatch,
    ExtElement,
    IndexOutOfRange,
    Monomial,
    ParseError,
    QuadraticForm,
    basis,
    format_element,
    parse,
    wedge,
    _merge_sign,
)

from helpers import reference_merge_sign

AMB = Ambient(3, 2, 5)


def elements(ambient=AMB):
    keys = [(m.e_bits, m.x_bits) for d in range(ambient.w + ambient.r + 1) for m in basis(d, ambient)]
    return st.dictionaries(st.sampled_from(keys), st.integers(0, ambient.p - 1), max_size=6).map(
        lambda t: ExtElement(ambient, t)
    )


def test_ambient_validation():
    assert Ambient(2, 1, 5).p == 5
    with pytest.raises(ValueError):
        Ambient(-1, 0, 5)
    with pytest.raises(ValueError):
        Ambient(40, 40, 5)
    with pytest.raises(ValueError):
        Ambient(2, 1, 6)


def test_generator_accessors():
    e1 = AMB.e(1)
    assert str(e1) == "e1"
    assert str(AMB.x(2)) == "x2"
    with pytest.raises(IndexOutOfRange):
        AMB.e(4)
    with pytest.raises(IndexOutOfRange):
        AMB.x(3)
    with pytest.raises(IndexOutOfRange):
        AMB.x(0)


def test_monomial_roundtrip_and_order():
    m = Monomial((1, 3), (2,))
    assert m.e_bits == 0b101 and m.x_bits == 0b10
    assert Monomial.from_bits(0b101, 0b10) == m
    assert m.degree == 3
    assert str(m) == "e1^e3^x2"
    assert str(Monomial((), ())) == "1"
    with pytest.raises(ValueError):
        Monomial((3, 1), ())


def test_basis_order_is_degree_then_xmask_then_emask():
    names = [str(m) for m in basis(2, Ambient(2, 2, 5))]
    assert names == ["e1^e2", "e1^x1", "e2^x1", "e1^x2", "e2^x2", "x1^x2"]
    assert basis(5, Ambient(2, 2, 5)) == []
    assert [str(m) for m in basis(0, AMB)] == ["1"]


def test_wedge_signs():
    e1, e2, x1 = AMB.e(1), AMB.e(2), AMB.x(1)
    assert e1 * e2 == -(e2 * e1)
    assert x1 * e1 == -(e1 * x1)
    assert (e1 * e1).is_zero()
    assert (x1 * x1).is_zero()
    # generators commute with the unit and scalars
    assert 1 * e1 == e1
    assert str(3 * e1) == "3 e1"


def test_wedge_triple_sign():
    # moving x1 across e1^e2 costs two transpositions
    lhs = AMB.x(1) * (AMB.e(1) * AMB.e(2))
    rhs = (AMB.e(1) * AMB.e(2)) * AMB.x(1)
    assert lhs == rhs


def test_ambient_mismatch():
    other = Ambient(3, 2, 7)
    with pytest.raises(AmbientMismatch):
        wedge(AMB.e(1), other.e(1))
    with pytest.raises(AmbientMismatch):
        AMB.e(1) + other.e(1)


def test_coefficients_normalized_mod_p():
    q = ExtElement(AMB, {(1, 0): 7})
    assert q == 2 * AMB.e(1)
    assert ExtElement(AMB, {(1, 0): 5}).is_zero()


def test_degree_and_homogeneity():
    a = AMB.e(1) * AMB.x(1)
    assert a.degree() == 2 and a.is_homogeneous(2)
    mixed = AMB.e(1) + AMB.e(1) * AMB.x(1)
    assert mixed.degree() is None and not mixed.is_homogeneous()
    assert AMB.zero().degree() is None
    assert AMB.zero().is_homogeneous()


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), elements())
def test_algebra_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == AMB.zero()
    assert a * AMB.one() == a


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_wedge_graded_anticommutativity(a, b):
    da, db = a.degree(), b.degree()
    if da is None or db is None:
        return
    sign = -1 if (da % 2 and db % 2) else 1
    assert a * b == sign * (b * a)


@settings(max_examples=80, deadline=None)
@given(elements())
def test_parse_formats_roundtrip(a):
    assert parse(format_element(a), AMB) == a


def test_parse_examples():
    assert parse("e1^e2 + 2 e2^x1", AMB) == AMB.e(1) * AMB.e(2) + 2 * AMB.e(2) * AMB.x(1)
    assert parse("-e1 + e1", AMB).is_zero()
    assert parse("0", AMB).is_zero()
    assert parse("1", AMB) == AMB.one()
    assert parse("7", AMB) == AMB.scalar(2)
    # sign emerges from factor order
    assert parse("e2^e1", AMB) == -(AMB.e(1) * AMB.e(2))


@pytest.mark.parametrize(
    "bad",
    ["", "e", "e1^", "^e1", "e1 e2", "e1 +", "y1", "e1^2", "2^e1", "e1**e2"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse(bad, AMB)


def test_parse_position_is_reported():
    try:
        parse("e1^^e2", AMB)
    except ParseError as exc:
        assert exc.position == 3
    else:
        pytest.fail("no ParseError")


def test_parse_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse("e4", AMB)


def test_format_zero_and_unit():
    assert format_element(AMB.zero()) == "0"
    assert format_element(AMB.one()) == "1"
    assert format_element(AMB.scalar(3) + AMB.e(2)) == "3 + e2"


def test_quadratic_form():
    q = QuadraticForm(AMB, {(0b11, 0): 1})
    assert q.degree() == 2
    with pytest.raises(ValueError):
        QuadraticForm(AMB, {(0b1, 0): 1})
    with pytest.raises(ValueError):
        QuadraticForm(AMB, {(0b11, 0b1): 1})
    assert QuadraticForm.from_element(AMB.e(1) * AMB.e(2)) == q
    assert QuadraticForm.from_element(AMB.zero()).is_zero()


def test_quadratic_form_arithmetic_returns_plain_element():
    amb = Ambient(3, 0, 5)
    q = QuadraticForm.from_element(parse("e1^e2 + 2 e2^e3", amb))
    for result in (q + q, q - q, -q, 3 * q, q * 2, q * parse("e1", amb)):
        assert type(result) is ExtElement
    assert q == parse("e1^e2 + 2 e2^e3", amb)
    assert hash(q) == hash(parse("e1^e2 + 2 e2^e3", amb))


def test_merge_sign_matches_reference_on_all_disjoint_8_bit_pairs():
    for a in range(1 << 8):
        rest = 0xFF & ~a
        b = rest
        while True:
            assert _merge_sign(a, b) == reference_merge_sign(a, b), (a, b)
            if not b:
                break
            b = (b - 1) & rest


@given(elements())
def test_trusted_constructor_equals_the_validating_one(a):
    trusted = ExtElement._from_residues(AMB, dict(a._terms))
    assert type(trusted) is ExtElement
    assert trusted == a and list(trusted._terms) == list(a._terms)
    assert str(trusted) == str(a) and hash(trusted) == hash(a)
    assert trusted * a == a * a and trusted + a == a + a
