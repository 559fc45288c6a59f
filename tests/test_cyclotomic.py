import itertools

from matrix_oracle import CyclotomicMatrix, cyclotomic_polynomial, zeta_power


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_zeta_power_reduction():
    # zeta_4^2 = -1 in Z[i]
    assert zeta_power(4, 2) == (-1, 0)
    assert zeta_power(4, 1) == (0, 1)
    # zeta_3^2 = -1 - zeta_3 mod 1 + x + x^2
    assert zeta_power(3, 2) == (-1, -1)
    # full cycle returns to 1
    for n in (3, 4, 5):
        assert zeta_power(n, n) == zeta_power(n, 0)


def test_matrix_identity_and_mul():
    ident = CyclotomicMatrix.identity(4, 2)
    zr = zeta_power(4, 1)
    one = zeta_power(4, 0)
    zero = tuple([0] * len(one))
    x = CyclotomicMatrix(4, 2, ((zero, one), (one, zero)))
    z = CyclotomicMatrix(4, 2, ((one, zero), (zero, zr)))
    assert ident @ x == x
    assert x @ ident == x
    # (XZ)^2 should be -(ZX)^2 times identity squared relation: just check
    # associativity on a sample triple instead of a named relation
    lhs = (x @ z) @ x
    rhs = x @ (z @ x)
    assert lhs == rhs


def test_matrix_scalar_and_order():
    ident = CyclotomicMatrix.identity(4, 1)
    m = ident.scale(1)
    acc = m
    for _ in range(3):
        acc = acc @ m
    assert acc == ident


def test_exact_integer_entries():
    for n in (3, 4, 5):
        for k in range(2 * n):
            entry = zeta_power(n, k)
            assert all(isinstance(c, int) for c in entry)
