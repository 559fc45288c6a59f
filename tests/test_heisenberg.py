import itertools

import pytest

from matrix_oracle import phi_map, unitriangular_mul
from paulidecomp.algebra import Carrier, field_make
from paulidecomp.claims import heis_semidirect_report
from paulidecomp.groupcore import isomorphic
from paulidecomp.heisenberg import (dihedral8, extraspecial_e1,
                                    extraspecial_e2, heis_group, heis_spec,
                                    quaternion8)


def test_order_formulas():
    assert heis_group(heis_spec(field_make(3, 1))).order == 27
    assert heis_group(heis_spec(field_make(5, 1))).order == 125
    assert heis_group(heis_spec(field_make(3, 2))).order == 729
    assert heis_group(heis_spec(field_make(3, 2), reduced=True)).order == 243
    assert heis_group(heis_spec(Carrier(3, 2, False))).order == 729
    assert heis_group(heis_spec(field_make(3, 1), n=2)).order == 243


def test_center_and_derived():
    g = heis_group(heis_spec(field_make(3, 1)))
    assert g.center().order == 3
    assert g.derived_subgroup().order == 3
    assert g.exponent == 3


def test_phi_map_is_isomorphism_onto_unitriangular(
        assert_faithful_representation):
    # polarized cocycle matches plain matrix multiplication entrywise;
    # generators: x and y for each basis element p^i of GF(p^m)
    for p, m in ((3, 1), (5, 1), (3, 2)):
        f = field_make(p, m)
        spec = heis_spec(f, cocycle="polarized")
        gens = [spec.element([p ** i], [0]) for i in range(m)]
        gens += [spec.element([0], [p ** i]) for i in range(m)]
        assert_faithful_representation(
            spec, gens, lambda g: (g[0][0], g[1][0], g[2]),
            lambda m1, m2, f=f: unitriangular_mul(f, m1, m2))


def test_phi_map_symplectic_odd():
    f = field_make(3, 1)
    spec = heis_spec(f)
    els = list(spec.elements())
    for g, h in itertools.product(els, repeat=2):
        assert unitriangular_mul(f, phi_map(spec, g), phi_map(spec, h)) == \
            phi_map(spec, spec.mul(g, h))


def test_symplectic_vs_polarized_isomorphic():
    f = field_make(3, 1)
    a = heis_group(heis_spec(f))
    b = heis_group(heis_spec(f, cocycle="polarized"))
    ok, _ = isomorphic(a, b)
    assert ok


def test_reduced_center():
    spec = heis_spec(field_make(3, 2), reduced=True)
    g = heis_group(spec)
    assert g.order == 243
    assert g.center().order == 3


def test_reduced_rejects_ring_carrier():
    with pytest.raises(ValueError, match="field carrier"):
        heis_spec(Carrier(3, 2, False), reduced=True)
    assert heis_spec(Carrier(3, 1, False), reduced=True).order == 27


def test_semidirect_report():
    rep = heis_semidirect_report(heis_spec(field_make(3, 1)))
    assert rep.status == "confirmed"
    facts = rep.witness["facts"]
    assert facts["A_order"] == 9 and facts["B_order"] == 9
    assert facts["A_abelian"] and facts["A_normal"]


def test_reference_groups():
    d8, q8 = dihedral8(), quaternion8()
    assert d8.order == q8.order == 8
    assert sorted(d8.element_orders).count(2) == 5
    assert sorted(q8.element_orders).count(2) == 1
    e1, e2 = extraspecial_e1(3), extraspecial_e2(3)
    assert e1.order == e2.order == 27
    assert e1.exponent == 3
    assert e2.exponent == 9
    ok, _ = isomorphic(e1, e2)
    assert not ok


@pytest.mark.parametrize("p", [3, 5])
def test_extraspecial_invariants(p):
    for g in (extraspecial_e1(p), extraspecial_e2(p)):
        assert g.order == p ** 3
        assert g.center().order == p
        assert g.derived_subgroup().order == p
