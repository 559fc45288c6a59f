import itertools

import pytest

from paulidecomp.algebra import Carrier, field_make, is_prime, prime_power
from paulidecomp.cli import main
from paulidecomp.heisenberg import heis_spec

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
        Carrier(2, 0, True)


def test_zmod_ring():
    r = Carrier(3, 2, False)
    assert r.size == 9
    assert r.add(7, 5) == 3
    assert r.mul(4, 7) == 1
    assert r.inv(4) == 7
    with pytest.raises(ZeroDivisionError):
        r.inv(3)
    assert Carrier(5, 1, False).trace(3) == 3
    with pytest.raises(ValueError):
        r.trace(1)


@pytest.mark.parametrize("p,m,modulus", [
    (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1)),
    (2, 4, (1, 1, 0, 0, 1)), (5, 2, (2, 0, 1)),
])
def test_default_modulus(p, m, modulus):
    # every element code rests on the modulus chosen
    assert field_make(p, m).modulus == modulus


# GF(4), GF(8) and GF(9) products, element codes as base-p digit vectors
MUL_TABLES = {
    (2, 2): [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
    (2, 3): [[0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7],
             [0, 2, 4, 6, 3, 1, 7, 5], [0, 3, 6, 5, 7, 4, 1, 2],
             [0, 4, 3, 7, 6, 2, 5, 1], [0, 5, 1, 4, 2, 7, 3, 6],
             [0, 6, 7, 1, 5, 3, 2, 4], [0, 7, 5, 2, 1, 6, 4, 3]],
    (3, 2): [[0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7, 8],
             [0, 2, 1, 6, 8, 7, 3, 5, 4], [0, 3, 6, 2, 5, 8, 1, 4, 7],
             [0, 4, 8, 5, 6, 1, 7, 2, 3], [0, 5, 7, 8, 1, 3, 4, 6, 2],
             [0, 6, 3, 1, 7, 4, 2, 8, 5], [0, 7, 5, 4, 2, 6, 8, 3, 1],
             [0, 8, 4, 7, 3, 2, 5, 1, 6]],
}


@pytest.mark.parametrize("p,m", sorted(MUL_TABLES))
def test_mul_table_literals(p, m):
    assert field_make(p, m).mul_table == MUL_TABLES[(p, m)]


def test_spec_builds_no_table():
    f = field_make(2, 12)
    spec = heis_spec(f)
    assert spec.order == 4096 ** 3
    assert spec == heis_spec(field_make(2, 12))
    assert heis_spec(f, reduced=True).order == 4096 ** 2 * 2
    assert set(vars(f)) == {"p", "m", "field"}


def test_cli_refuses_gf4096_before_any_table(capsys):
    assert main(["build", "heis:R=gf(4096),n=1"]) == 3
    assert "cap exceeded" in capsys.readouterr().err


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
