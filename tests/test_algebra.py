import dataclasses
import itertools
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulidecomp import algebra
from paulidecomp.algebra import (COCYCLES, Carrier, field_make, heis_spec,
                                 is_prime, lifted_spec, pauli_spec,
                                 prime_power)
from paulidecomp.groupcore import extension_table
from paulidecomp.reports import CapError
from paulidecomp.cli import main

# every prime power up to 25
PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2)]


@pytest.mark.parametrize("p,m", PRIME_POWERS)
def test_field_axioms_exhaustive(p, m):
    f = field_make(p, m)
    add, mul = f.add_table, f.mul_table
    els = range(f.size)
    assert len(els) == p ** m
    for x, y in itertools.product(els, repeat=2):
        assert add[x][y] == add[y][x]
        assert mul[x][y] == mul[y][x]
    for x, y, z in itertools.product(els, repeat=3):
        assert add[add[x][y]][z] == add[x][add[y][z]]
        assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
        assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
    zero, one = 0, f.scalar(1)
    for x in els:
        assert add[x][zero] == x
        assert mul[x][one] == x
        assert add[x][f.neg(x)] == zero
        if x != zero:
            assert one in mul[x]


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_trace_kernel_size(p, m):
    f = field_make(p, m)
    kernel = [x for x in range(f.size) if f.trace(x) == 0]
    assert len(kernel) == p ** (m - 1)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_trace_properties(p, m):
    f = field_make(p, m)
    for x in range(f.size):
        assert 0 <= f.trace(x) < p
        assert f.trace(f.frobenius(x)) == f.trace(x)
    for x, y in itertools.product(range(f.size), repeat=2):
        assert f.trace(f.add_table[x][y]) == (f.trace(x) + f.trace(y)) % p


def test_trace_surjective_gf9():
    f = field_make(3, 2)
    assert set(f.trace(x) for x in range(f.size)) == {0, 1, 2}


def test_frobenius_is_field_automorphism():
    f = field_make(2, 3)
    add, mul, frob = f.add_table, f.mul_table, f.frobenius
    for x, y in itertools.product(range(f.size), repeat=2):
        assert frob(mul[x][y]) == mul[frob(x)][frob(y)]
        assert frob(add[x][y]) == add[frob(x)][frob(y)]


def test_prime_field_matches_mod_arithmetic():
    f = field_make(5, 1)
    for x, y in itertools.product(range(5), repeat=2):
        assert f.add_table[x][y] == (x + y) % 5
        assert f.mul_table[x][y] == (x * y) % 5


def _modulus(f):
    """Little-endian coefficients of the monic modulus x^m + low of
    GF(p^m), read from the powers of x (code p) in ``mul_table``:
    x^m = -low."""
    power = 1
    for _ in range(f.m):
        power = f.mul_table[power][f.p]
    return tuple(-(power // f.p ** i) % f.p for i in range(f.m)) + (1,)


def test_deterministic_modulus():
    assert _modulus(field_make(2, 2)) == _modulus(field_make(2, 2))
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
    assert r.add_table[7][5] == 3
    assert r.mul_table[4][7] == 1
    # 4 is a unit with inverse 7; 3 is a zero divisor, a unit nowhere
    assert r.mul_table[4].index(1) == 7
    assert 1 not in r.mul_table[3]
    assert Carrier(5, 1, False).trace(3) == 3
    with pytest.raises(ValueError):
        r.trace(1)


@pytest.mark.parametrize("p,m,modulus", [
    (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1)),
    (2, 4, (1, 1, 0, 0, 1)), (5, 2, (2, 0, 1)),
])
def test_default_modulus(p, m, modulus):
    # every element code rests on the modulus chosen
    assert _modulus(field_make(p, m)) == modulus


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


def _trial_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    for n in range(-2, 5000):
        assert is_prime(n) == _trial_is_prime(n), n


def test_large_primes_composites_and_prime_powers():
    for p in (100000000000000003, 999999999999999989, 2 ** 61 - 1):
        assert is_prime(p) and prime_power(p) == (p, 1)
    # 10^17 + 1 = 11 * 103 * 4013 * 21993833369; the next two are strong
    # pseudoprimes to every prime base up to 23 and up to 37
    for n in (100000000000000001, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n) and prime_power(n) is None
    assert prime_power(2 ** 100) == (2, 100)
    assert prime_power(3 ** 50) == (3, 50)
    assert prime_power(1000003 ** 2) == (1000003, 2)
    assert prime_power(999999999989 ** 2) == (999999999989, 2)
    assert prime_power(6 ** 20) is None
    assert prime_power(10 ** 12) is None


def test_primality_refused_above_the_deterministic_bound():
    # MR_LIMIT is the least strong pseudoprime to the 13 bases
    with pytest.raises(CapError):
        is_prime(algebra.MR_LIMIT)
    with pytest.raises(CapError):
        prime_power(algebra.MR_LIMIT)
    assert not is_prime(2 * algebra.MR_LIMIT)


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
    # both branches, on the window across TRIAL_LIMIT and on prime powers
    # either side of it
    lo = algebra.TRIAL_LIMIT
    for n in [*range(lo - 200, lo + 200), 1021 ** 2, 1031 ** 2, 101 ** 3,
              3 ** 12, 3 ** 13, 1048573, 1048583 ** 2]:
        q = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
        k = next(k for k in range(n.bit_length(), -1, -1) if n % q ** k == 0)
        assert prime_power(n) == ((q, k) if q ** k == n else None), n


# ---------------------------------------------------------------------------
# a spec is its law
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_m1_canonical_form_keeps_the_law(p):
    # Z/p and GF(p) have one arithmetic, and the trace centre of GF(p)
    # (Z_p through the trace, which is the identity on GF(p)) has the
    # carrier centre's map and addition
    ring, field = Carrier(p, 1, False), Carrier(p, 1, True)
    for table in ("add_table", "mul_table", "trace_table"):
        assert getattr(ring, table) == getattr(field, table)
    assert ([ring.neg(x) for x in range(p)]
            == [field.neg(x) for x in range(p)])
    assert field.trace_table == list(range(p))
    assert field.add_table == [[(x + y) % p for y in range(p)]
                               for x in range(p)]


def _spellings(p: int, m: int, n: int) -> list:
    """Every spec with carrier size p^m and n registers that the spec
    constructors accept."""
    out = [lifted_spec(p, m, n)]
    if p > 2 or m == 1:
        out.append(pauli_spec(p, m, n))
    for field, cocycle, reduced in itertools.product(
            (True, False), COCYCLES, (True, False)):
        if field or m == 1 or not reduced:
            out.append(heis_spec(Carrier(p, m, field), n, cocycle, reduced))
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(p, m, n) for p in (2, 3, 5) for m in (1, 2)
                        for n in (1, 2) if (p ** m) ** (2 * n) <= 81])
       .flatmap(lambda pmn: st.tuples(*[st.sampled_from(_spellings(*pmn))]
                                      * 2)))
def test_equal_specs_have_equal_tables(pair):
    a, b = pair
    if a == b:
        assert hash(a) == hash(b)
        assert a.elements() == b.elements()
        assert np.array_equal(extension_table(a), extension_table(b))


def test_a_spec_is_its_law():
    gf3, z3 = field_make(3, 1), Carrier(3, 1, False)
    assert (heis_spec(gf3, reduced=True) == heis_spec(z3)
            == heis_spec(gf3))
    assert heis_spec(gf3, 2, reduced=True) == heis_spec(z3, 2)
    for p in (3, 5, 7):
        assert lifted_spec(p, 1, 1) == pauli_spec(p, 1, 1)
    # the name is a label: it makes no spec unequal
    spec = pauli_spec(2, 1, 1)
    renamed = dataclasses.replace(spec, name="other")
    assert renamed == spec and hash(renamed) == hash(spec)
    # distinct laws stay distinct: gf(9) and z(9), the two cocycles, and
    # the qubit law with its doubled trace
    assert heis_spec(field_make(3, 2)) != heis_spec(Carrier(3, 2, False))
    assert heis_spec(gf3) != heis_spec(gf3, cocycle="polarized")
    assert pauli_spec(2, 1, 1) != lifted_spec(2, 1, 1)
    assert pauli_spec(3, 2, 1) != lifted_spec(3, 2, 1)
