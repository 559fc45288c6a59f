"""The whole-array tables against their scalar laws, exhaustively: every
central-extension family up to order 1024 against its ``mul`` oracle,
and E2(p) against its semidirect-product law."""

import pytest

from matrix_oracle import tabulate
from paulidecomp.algebra import Carrier, field_make
from paulidecomp.heisenberg import (COCYCLES, extraspecial_e2, heis_group,
                                    heis_spec)
from paulidecomp.lifted import lifted_group, lifted_spec, pi_image_group
from paulidecomp.pauli import pauli_group, pauli_law, pauli_spec


def assert_oracle_table(g, mul):
    assert (g.table == tabulate(g.elements, mul)).all()


@pytest.mark.parametrize("p,m,n", [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4),
    (3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1), (7, 1, 1),
])
def test_pauli_table(p, m, n):
    spec = pauli_spec(p, m, n)
    assert_oracle_table(pauli_group(spec), spec.mul)


@pytest.mark.parametrize("p,m,n", [
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1),
])
def test_lifted_table(p, m, n):
    spec = lifted_spec(p, m, n)
    assert_oracle_table(lifted_group(spec), spec.mul)


@pytest.mark.parametrize("p,m,n", [
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1),
])
def test_pi_image_table(p, m, n):
    spec = lifted_spec(p, m, n)
    assert_oracle_table(pi_image_group(spec), pauli_law(spec.carrier, n).mul)


CARRIERS = {
    "gf(3)": field_make(3, 1), "gf(4)": field_make(2, 2),
    "gf(5)": field_make(5, 1), "gf(9)": field_make(3, 2),
    "z(4)": Carrier(2, 2, False), "z(9)": Carrier(3, 2, False),
}


def heisenberg_cases():
    for name, carrier in CARRIERS.items():
        for n in (1, 2):
            for cocycle in COCYCLES:
                for reduced in (False, True):
                    if reduced and not carrier.field:
                        continue
                    centre = carrier.p if reduced else carrier.size
                    if carrier.size ** (2 * n) * centre <= 1024:
                        yield pytest.param(
                            carrier, n, cocycle, reduced,
                            id=f"{name}-n{n}-{cocycle}-{reduced}")


@pytest.mark.parametrize("carrier,n,cocycle,reduced", heisenberg_cases())
def test_heisenberg_table(carrier, n, cocycle, reduced):
    spec = heis_spec(carrier, n, cocycle, reduced)
    assert_oracle_table(heis_group(spec), spec.mul)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_e2_table(p):
    p2 = p * p

    def law(g, h):
        (x1, y1), (x2, y2) = g, h
        return ((x1 + x2 * pow(1 + p, y1, p2)) % p2, (y1 + y2) % p)

    elems = [(x, y) for x in range(p2) for y in range(p)]
    g = extraspecial_e2(p)
    assert list(g.elements) == elems
    assert_oracle_table(g, law)
