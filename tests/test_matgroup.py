"""Matrix layer: arithmetic, coordinates, log/exp, wire format."""

import random
from fractions import Fraction

import pytest

from nilmat.matgroup import (
    PositionBasis,
    RationalNilpotentMatrix,
    RationalSquareMatrix,
    UnitriangularMatrix,
    commutator,
    elementary,
    exp_nilpotent,
    from_coordinates,
    identity,
    level_weight,
    log_unipotent,
    malcev_coordinates,
    matrix_from_json,
    matrix_to_json,
)


def random_element(rng, n, length=6, span=3):
    g = identity(n)
    for _ in range(length):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        g = g * elementary(n, i, j, rng.randint(-span, span))
    return g


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        UnitriangularMatrix(((1, 0), (0, 1), (0, 0)))
    with pytest.raises(ValueError):
        UnitriangularMatrix(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        UnitriangularMatrix(((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        UnitriangularMatrix(((1, 0.5), (0, 1)))
    with pytest.raises(ValueError):
        elementary(2, 1, 2, 0.5)


def test_elementary_product_fills_entry():
    g = elementary(3, 1, 2, 4)
    h = elementary(3, 2, 3, 5)
    assert (g * h).entry(1, 3) == 20
    assert (h * g).entry(1, 3) == 0


def test_inverse_and_power():
    rng = random.Random(101)
    for n in (3, 4, 5):
        for _ in range(25):
            g = random_element(rng, n)
            assert (g * g.inverse()).is_identity
            assert g ** 0 == identity(n)
            assert g ** 1 == g and g ** -1 == g.inverse()
            assert g ** 3 == g * g * g
            assert g ** -2 == (g.inverse()) ** 2


def test_commutator_of_chained_elementaries():
    # [s_ij, s_jk] = s_ik and the reversed order inverts it
    s12 = elementary(4, 1, 2)
    s23 = elementary(4, 2, 3)
    s34 = elementary(4, 3, 4)
    assert commutator(s12, s23) == elementary(4, 1, 3)
    assert commutator(s23, s12) == elementary(4, 1, 3, -1)
    assert commutator(s12, s34).is_identity


def test_level_weight_and_level_subgroup():
    assert level_weight(elementary(5, 2, 4)) == 2
    assert level_weight(elementary(5, 1, 5)) == 4
    with pytest.raises(ValueError):
        level_weight(identity(4))


def test_position_basis_flavors():
    lcs = PositionBasis(4, "lcs-standard")
    assert lcs.positions == ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4))
    assert lcs.weights == (1, 1, 1, 2, 2, 3)
    scheme = PositionBasis(4, "scheme")
    assert scheme.positions == (
        (1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4)
    )
    assert scheme.weights == (1, 1, 2, 1, 2, 3)
    with pytest.raises(ValueError):
        PositionBasis(4, "rowwise")


def test_coordinates_roundtrip_both_flavors():
    rng = random.Random(202)
    for flavor in ("lcs-standard", "scheme"):
        basis = PositionBasis(5, flavor)
        for _ in range(40):
            coords = tuple(
                rng.randint(-9, 9) for _ in range(len(basis.positions))
            )
            g = from_coordinates(coords, basis)
            assert tuple(malcev_coordinates(g, basis)) == coords


def test_coordinates_of_products_start_additively():
    # first-level coordinates add because corrections sit deeper
    basis = PositionBasis(4, "lcs-standard")
    rng = random.Random(303)
    for _ in range(20):
        a = random_element(rng, 4)
        b = random_element(rng, 4)
        ca = malcev_coordinates(a, basis)
        cb = malcev_coordinates(b, basis)
        cab = malcev_coordinates(a * b, basis)
        assert cab[0] == ca[0] + cb[0]
        assert cab[1] == ca[1] + cb[1]
        assert cab[2] == ca[2] + cb[2]


def test_log_exp_roundtrip():
    rng = random.Random(404)
    for n in (3, 4, 6):
        for _ in range(15):
            g = random_element(rng, n)
            x = log_unipotent(g)
            assert exp_nilpotent(x) == g
    assert log_unipotent(identity(4)).is_zero


def test_log_of_central_power_scales():
    z = elementary(3, 1, 3)
    x = log_unipotent(z)
    y = log_unipotent(z ** 5)
    assert y.rows[0][2] == 5 * x.rows[0][2]


def test_exp_rejects_fractional_result():
    x = RationalNilpotentMatrix(
        ((Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(0)))
    )
    with pytest.raises(ValueError):
        exp_nilpotent(x)


def test_rational_nilpotent_keeps_int_entries():
    x = RationalNilpotentMatrix(((0, 2, 0), (0, 0, 3), (0, 0, 0)))
    y = RationalNilpotentMatrix(((0, 1, 5), (0, 0, 1), (0, 0, 0)))
    for z in (x + y, x - y, x * y, x.bracket(y), x.scale(4)):
        assert all(type(e) is int for row in z.rows for e in row)
    assert x.bracket(y).rows[0][2] == -1
    assert x.scale(Fraction(1, 2)).rows[0][1] == 1
    # exp divides by factorials exactly, never in floating point
    assert exp_nilpotent(x) == UnitriangularMatrix(
        ((1, 2, 3), (0, 1, 3), (0, 0, 1))
    )
    with pytest.raises(ValueError):
        exp_nilpotent(y)


def test_rational_nilpotent_bracket():
    rng = random.Random(505)
    for _ in range(10):
        a = log_unipotent(random_element(rng, 4))
        b = log_unipotent(random_element(rng, 4))
        ab = a.bracket(b)
        ba = b.bracket(a)
        assert (ab + ba).is_zero


def test_rational_square_matrix_group_ops():
    rows = ((1, 2, 3), (0, 1, 4), (0, 0, 1))
    m = RationalSquareMatrix(rows)
    assert m * m.inverse() == RationalSquareMatrix.identity(3)
    assert m ** 3 == m * m * m
    assert m ** -1 == m.inverse()
    with pytest.raises(ValueError):
        RationalSquareMatrix(((0, 0), (0, 0))).inverse()


def test_rational_square_matrix_keeps_int_entries():
    def types(m):
        return {type(e) for row in m.rows for e in row}

    # a permuted integer matrix: pivots are 1 or -1 after row swaps
    m = RationalSquareMatrix(((0, 1, 2), (-1, 0, 3), (0, 0, 1)))
    assert types(m) == {int}
    assert types(m * m) == {int}
    assert types(m ** 0) == {int}
    assert types(m.inverse()) == {int}
    assert m * m.inverse() == RationalSquareMatrix.identity(3)
    # other pivots divide through a Fraction, never a float
    h = RationalSquareMatrix(((2, 1), (0, 1))).inverse()
    assert h.rows == ((Fraction(1, 2), Fraction(-1, 2)), (0, 1))
    assert float not in types(h)
    m = RationalSquareMatrix(((Fraction(3), 0.5), (0.25, Fraction(1))))
    assert types(m) == {Fraction}
    assert m.rows[0][1] == Fraction(1, 2)
    with pytest.raises(ValueError, match="matrix is not square"):
        RationalSquareMatrix(((Fraction(3), 0.5),))


def test_matrix_json_roundtrip_keeps_big_integers():
    big = 10 ** 40 + 7
    g = elementary(3, 1, 3, big)
    obj = matrix_to_json(g)
    assert obj["rows"][0][2] == str(big)
    assert matrix_from_json(obj) == g


def test_immutability():
    g = elementary(3, 1, 2)
    with pytest.raises(AttributeError):
        g.n = 5


def _dense_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _dense_inverse(a):
    # back substitution on the unit upper triangle: x = a^-1 satisfies
    # x[i][j] = -sum_{i<k<=j} a[i][k] x[k][j]
    n = len(a)
    x = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            x[i][j] = -sum(a[i][k] * x[k][j] for k in range(i + 1, j + 1))
    return x


def _random_unitriangular(rng, n, density):
    return UnitriangularMatrix([
        [
            1 if i == j
            else rng.randint(-3, 3) if j > i and rng.random() < density
            else 0
            for j in range(n)
        ]
        for i in range(n)
    ])


@pytest.mark.parametrize("n", range(1, 21))
def test_sparse_kernel_matches_dense_reference(n):
    rng = random.Random(4000 + n)
    for density in (0.0, 0.05, 0.3, 1.0):
        a = _random_unitriangular(rng, n, density)
        b = _random_unitriangular(rng, n, density)
        a_rows = [list(r) for r in a.rows]
        b_rows = [list(r) for r in b.rows]
        ab = a * b
        assert [list(r) for r in ab.rows] == _dense_mul(a_rows, b_rows)
        inv = a.inverse()
        assert [list(r) for r in inv.rows] == _dense_inverse(a_rows)
        assert inv * a == identity(n) == a * inv
        e = rng.randint(-4, 4)
        want = [[int(i == j) for j in range(n)] for i in range(n)]
        step = a_rows if e >= 0 else _dense_inverse(a_rows)
        for _ in range(abs(e)):
            want = _dense_mul(want, step)
        assert [list(r) for r in (a ** e).rows] == want
    # a unit row of the left factor reuses the right factor's row
    m = identity(n) * b
    assert all(r is s for r, s in zip(m.entries, b.entries))
