import pytest
from hypothesis import given, strategies as st

from subconj import ParseError, Permutation, parse_permutation

from oracles import hand_compose, hand_inverse


def P(text, degree):
    return parse_permutation(text, degree)


def test_identity_composes_neutrally():
    g = P("(1,2,3)", 5)
    e = Permutation.identity(5)
    assert e * g == g
    assert g * e == g


def test_left_to_right_composition():
    f = P("(1,2,3)", 3)
    g = P("(1,2)", 3)
    expected = hand_compose(f, g)
    assert f * g == expected
    assert str(f * g) == "(2,3)"


def test_inverse_law():
    f = P("(1,4)(2,5,3)", 6)
    assert f * f.inverse() == Permutation.identity(6)
    assert f.inverse() * f == Permutation.identity(6)


def test_identity_inverse_is_identity():
    e = Permutation.identity(4)
    assert e.inverse() == e


def test_three_cycle_inverse():
    assert P("(1,2,3)", 3).inverse() == hand_inverse(P("(1,2,3)", 3))
    assert str(P("(1,2,3)", 3).inverse()) == "(1,3,2)"


def test_transposition_is_an_involution():
    t = P("(2,5)", 5)
    assert t.inverse() == t
    assert t * t == Permutation.identity(5)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree mismatch"):
        P("(1,2)", 2) * P("(1,2)", 3)


def test_images_are_one_based():
    f = P("(1,2,3)", 4)
    assert f.images == (2, 3, 1, 4)
    assert f.apply(1) == 2
    assert Permutation([2, 3, 1, 4]) == f


def test_non_bijection_rejected():
    with pytest.raises(ValueError, match="bijection"):
        Permutation([1, 1, 3])


def test_degree_cap():
    with pytest.raises(ValueError, match="256"):
        Permutation.identity(257)
    # every constructor refuses a degree with the same message
    for build, degree in [
        (Permutation.identity, 0),
        (lambda d: Permutation.from_cycles([], d), 257),
        (lambda d: Permutation(range(1, d + 1)), 257),
    ]:
        with pytest.raises(ValueError) as info:
            build(degree)
        assert str(info.value) == f"degree must be in 1..256, got {degree}"


def test_order_and_cycle_type():
    f = P("(1,2,3)(4,5)", 6)
    assert f.order() == 6
    assert f.cycle_type() == (2, 3)
    assert Permutation.identity(3).order() == 1


def test_cycle_text_round_trip():
    for text, degree in [("(1,2,3)(4,5)", 6), ("()", 4), ("(2,6)", 7)]:
        assert str(P(text, degree)) == text if text != "()" else True
        again = parse_permutation(str(P(text, degree)), degree)
        assert again == P(text, degree)


def test_identity_renders_as_empty_cycles():
    assert str(Permutation.identity(5)) == "()"


def test_whitespace_is_insignificant():
    assert P(" (1, 2,3) ( 4,5)", 6) == P("(1,2,3)(4,5)", 6)


def test_malformed_cycle_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_permutation("(1,2", 4, line=3)


def test_point_outside_degree():
    with pytest.raises(ParseError, match="outside"):
        parse_permutation("(1,9)", 4)


def test_repeated_point_rejected():
    with pytest.raises(ParseError, match="repeated"):
        parse_permutation("(1,2,1)", 4)


@st.composite
def permutations(draw, degree=6):
    images = draw(st.permutations(list(range(1, degree + 1))))
    return Permutation(list(images))


@given(permutations(), permutations(), permutations())
def test_composition_is_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(permutations())
def test_inverse_is_exact(f):
    assert f * f.inverse() == Permutation.identity(6)
    assert f.inverse() == hand_inverse(f)


@given(permutations(), permutations())
def test_composition_matches_hand_oracle(f, g):
    assert f * g == hand_compose(f, g)


@given(permutations())
def test_power_matches_repeated_product(f):
    acc = Permutation.identity(6)
    for k in range(5):
        assert f**k == acc
        acc = acc * f
