import pytest

from subconj.fields import divisors, gf_tables
from subconj.zoo import SUPPORTED_Q, _matrix_group


def test_additive_identity():
    add, _ = gf_tables(7)
    assert add[4][0] == 4


def test_gf7_inverse_pair():
    _, mul = gf_tables(7)
    assert mul[3][5] == 1


def test_gf8_polynomial_reduction():
    _, mul = gf_tables(8)  # x^3 + x + 1; x is 2, x^2 is 4, x + 1 is 3
    assert mul[2][4] == 3  # x^3 = x + 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_prime_field_matches_integer_arithmetic(p):
    add, mul = gf_tables(p)
    for a in range(p):
        for b in range(p):
            assert add[a][b] == (a + b) % p
            assert mul[a][b] == (a * b) % p


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms(q):
    add, mul = gf_tables(q)
    elems = range(q)
    for a in elems:
        assert add[a][0] == mul[a][1] == a
        assert 0 in add[a]
        # every nonzero element has an inverse, zero has none
        assert (1 in mul[a]) == (a != 0)
        for b in elems:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in elems:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", [8, 9])
def test_extension_multiplicative_group_is_cyclic(q):
    _, mul = gf_tables(q)
    orders = []
    for a in range(1, q):
        n, acc = 1, a
        while acc != 1:
            acc = mul[acc][a]
            n += 1
        orders.append(n)
    assert max(orders) == q - 1  # a generator exists
    for o in orders:
        assert (q - 1) % o == 0


def test_row_action_composes():
    # v -> vM is a right action: the permutation of M then that of N is the
    # permutation of MN
    add, mul = gf_tables(9)
    m, n = ((1, 3), (0, 1)), ((0, 1), (2, 0))
    mn = tuple(
        tuple(add[mul[m[i][0]][n[0][j]]][mul[m[i][1]][n[1][j]]] for j in range(2))
        for i in range(2)
    )
    for projective in (False, True):
        order = 720 // (2 if projective else 1)
        g = _matrix_group(9, [((1, 1), (0, 1)), m, n, mn], order, projective)
        pm, pn, pmn = g.generators[1:]
        assert pm * pn == pmn


def test_divisors_match_the_definition():
    # every d lands in the list of each of its multiples, in ascending order
    multiples = [[] for _ in range(5001)]
    for d in range(1, 5001):
        for n in range(d, 5001, d):
            multiples[n].append(d)
    for n in range(1, 5001):
        assert divisors(n) == multiples[n], n
