import itertools

import pytest

from paulidecomp.algebra import (FieldSpec, ZmodRing, field_make, is_prime,
                                 prime_power)

# every prime power up to 25
PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2)]


@pytest.mark.parametrize("p,m", PRIME_POWERS)
def test_field_axioms_exhaustive(p, m):
    f = field_make(p, m)
    els = f.elements()
    assert len(els) == p ** m
    for x, y in itertools.product(els, repeat=2):
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
    for x, y, z in itertools.product(els, repeat=3):
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    zero, one = 0, f.scalar(1)
    for x in els:
        assert f.add(x, zero) == x
        assert f.mul(x, one) == x
        assert f.add(x, f.neg(x)) == zero
        if x != zero:
            assert f.mul(x, f.inv(x)) == one


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_trace_kernel_size(p, m):
    f = field_make(p, m)
    kernel = [x for x in f.elements() if f.trace(x) == 0]
    assert len(kernel) == p ** (m - 1)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_trace_properties(p, m):
    f = field_make(p, m)
    for x in f.elements():
        assert 0 <= f.trace(x) < p
        assert f.trace(f.frobenius(x)) == f.trace(x)
    for x, y in itertools.product(f.elements(), repeat=2):
        assert f.trace(f.add(x, y)) == (f.trace(x) + f.trace(y)) % p


def test_trace_surjective_gf9():
    f = field_make(3, 2)
    assert set(f.trace(x) for x in f.elements()) == {0, 1, 2}


def test_frobenius_is_field_automorphism():
    f = field_make(2, 3)
    for x, y in itertools.product(f.elements(), repeat=2):
        assert f.frobenius(f.mul(x, y)) == f.mul(f.frobenius(x), f.frobenius(y))
        assert f.frobenius(f.add(x, y)) == f.add(f.frobenius(x), f.frobenius(y))


def test_prime_field_matches_mod_arithmetic():
    f = field_make(5, 1)
    for x, y in itertools.product(range(5), repeat=2):
        assert f.add(x, y) == (x + y) % 5
        assert f.mul(x, y) == (x * y) % 5


def test_deterministic_modulus():
    assert field_make(2, 2).modulus == field_make(2, 2).modulus
    f9a, f9b = field_make(3, 2), field_make(3, 2)
    assert f9a.mul_table == f9b.mul_table


def test_field_rejects_bad_input():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        FieldSpec(2, 0, (1,))


def test_zmod_ring():
    r = ZmodRing(3, 2)
    assert r.size == 9
    assert r.add(7, 5) == 3
    assert r.mul(4, 7) == 1
    assert r.inv(4) == 7
    with pytest.raises(ZeroDivisionError):
        r.inv(3)
    assert ZmodRing(5, 1).trace(8) == 3
    with pytest.raises(ValueError):
        r.trace(1)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _prime_factors(n):
    out, d = [], 2
    while n > 1:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out


def test_prime_power_against_factoring():
    for n in range(1, 501):
        f = _prime_factors(n)
        expected = (f[0], len(f)) if f and len(set(f)) == 1 else None
        assert prime_power(n) == expected, n
