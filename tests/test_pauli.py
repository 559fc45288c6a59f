import itertools
import operator

import pytest

from matrix_oracle import pauli_matrix_oracle
from paulidecomp.algebra import p12_named_elements, pauli_element, pauli_spec
from paulidecomp.claims import lemma31_presentation_check, p22_relations_check
from paulidecomp.pauli import pauli_group


def order_of(spec, g):
    k, x = 1, g
    while x != spec.identity():
        x, k = spec.mul(x, g), k + 1
    return k


@pytest.mark.parametrize("p,m,n,order", [
    (2, 1, 1, 16), (2, 1, 2, 64), (2, 1, 3, 256),
    (3, 1, 1, 27), (5, 1, 1, 125), (3, 2, 1, 243), (3, 1, 2, 243),
])
def test_order_formula(p, m, n, order):
    spec = pauli_spec(p, m, n)
    assert spec.order == order
    assert pauli_group(spec).order == order


def test_qubit_spec_requires_m1():
    with pytest.raises(ValueError):
        pauli_spec(2, 2, 1)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_mul_associative_exhaustive_n1(p, m):
    spec = pauli_spec(p, m, 1)
    els = list(spec.elements())
    for g, h, k in itertools.product(els, repeat=3):
        assert spec.mul(spec.mul(g, h), k) == spec.mul(g, spec.mul(h, k))


def test_mul_associative_sampled_gf9():
    spec = pauli_spec(3, 2, 1)
    els = list(spec.elements())
    sample = els[::13]
    for g, h, k in itertools.product(sample, repeat=3):
        assert spec.mul(spec.mul(g, h), k) == spec.mul(g, spec.mul(h, k))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (3, 2)])
def test_inverses_and_identity(p, m):
    spec = pauli_spec(p, m, 1)
    e = spec.identity()
    for g in spec.elements():
        assert spec.mul(g, spec.inverse(g)) == e
        assert spec.mul(e, g) == g


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_oracle_all_pairs_n1(p):
    spec = pauli_spec(p, 1, 1)
    els = list(spec.elements())
    mats = {g: pauli_matrix_oracle(spec, g) for g in els}
    for g, h in itertools.product(els, repeat=2):
        assert mats[spec.mul(g, h)] == mats[g] @ mats[h]
    # distinct elements have distinct matrices (faithfulness)
    assert len(set(mats.values())) == len(els)


@pytest.mark.parametrize("p,m,n", [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (3, 2, 1),
])
def test_matrix_oracle_faithful(p, m, n, assert_faithful_representation):
    # the phase and one X and one Z per register and basis element p^i of
    # GF(p^m) over GF(p)
    spec = pauli_spec(p, m, n)
    gens = [pauli_element(spec, phase=1)]
    for j in range(n):
        for i in range(m):
            gens += [pauli_element(spec, j, x=p ** i),
                     pauli_element(spec, j, z=p ** i)]
    assert_faithful_representation(
        spec, gens, lambda g: pauli_matrix_oracle(spec, g), operator.matmul)


def test_element_orders_p12():
    spec = pauli_spec(2, 1, 1)
    g = pauli_group(spec)
    for key in spec.elements():
        assert order_of(spec, key) == g.element_orders[g.index[key]]
    assert g.exponent == 4


def test_named_elements_p12():
    spec = pauli_spec(2, 1, 1)
    named = p12_named_elements()
    u, a, b = named["u"], named["a"], named["b"]
    assert order_of(spec, u) == 4
    assert order_of(spec, a) == 2
    assert order_of(spec, b) == 4
    # u^2 = b^2 = -I
    assert spec.mul(u, u) == spec.mul(b, b)


def test_phase_convention_p2():
    spec = pauli_spec(2, 1, 1)
    x, z = pauli_element(spec, x=1), pauli_element(spec, z=1)
    y = pauli_element(spec, x=1, z=1, phase=1)
    # Y = iXZ: phases live mod 4 and XZ = -ZX
    assert y == (1, (1,), (1,))
    xz = spec.mul(x, z)
    zx = spec.mul(z, x)
    assert xz[1:] == zx[1:]
    assert (xz[0] - zx[0]) % 4 == 2


def test_odd_phase_convention():
    spec = pauli_spec(3, 1, 1)
    x, z = pauli_element(spec, x=1), pauli_element(spec, z=1)
    xz, zx = spec.mul(x, z), spec.mul(z, x)
    assert (xz[0] - zx[0]) % 3 != 0


def test_lemma31_suite():
    rep = lemma31_presentation_check()
    assert rep.status == "confirmed"
    assert all(rep.witness["relations"].values())
    facts = rep.witness["facts"]
    assert facts["order"] == 16
    assert facts["center_order"] == 4 and facts["center_cyclic"]
    assert facts["frattini_order"] == 2 and facts["derived_order"] == 2


def test_p22_relations_suite():
    rep = p22_relations_check()
    assert rep.status == "confirmed"
    assert rep.witness["facts"]["order"] == 64
    assert rep.witness["facts"]["center_order"] == 4
