import itertools

import pytest

from matrix_oracle import phi_map, unitriangular_mul
from paulidecomp.algebra import D8, Q8, Carrier, e1_spec, field_make, heis_spec
from paulidecomp.claims import heis_semidirect_report
from paulidecomp import groupcore
from paulidecomp.groupcore import extension_group, isomorphic
from paulidecomp.heisenberg import extraspecial_e2, heis_group


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


def test_one_group_per_law_in_a_run(built):
    # at m = 1, Hred(GF(3)), H(Z/3) and H(GF(3)) are one law: a run builds
    # its group once, under the name of the spec that asked first
    gf3 = field_make(3, 1)
    specs = [heis_spec(gf3, reduced=True), heis_spec(Carrier(3, 1, False)),
             heis_spec(gf3)]
    with groupcore.run_scope():
        groups = [heis_group(spec) for spec in specs]
    assert [spec for spec, _ in built["groups"]] == specs[:1]
    assert all(g is groups[0] for g in groups)
    assert groups[0].name == "Hred(gf(3)^1,symplectic)"


def test_reduced_rejects_ring_carrier():
    with pytest.raises(ValueError, match="field carrier"):
        heis_spec(Carrier(3, 2, False), reduced=True)
    assert heis_spec(Carrier(3, 1, False), reduced=True).order == 27


def test_semidirect_report():
    rep = heis_semidirect_report()
    assert rep.status == "confirmed"
    facts = rep.witness["facts"]
    assert facts["A_order"] == 9 and facts["B_order"] == 9
    assert facts["A_abelian"] and facts["A_normal"]


def test_reference_groups():
    d8, q8 = extension_group(D8), extension_group(Q8)
    assert d8.order == q8.order == 8
    assert sorted(d8.element_orders).count(2) == 5
    assert sorted(q8.element_orders).count(2) == 1
    e1, e2 = extension_group(e1_spec(3)), extraspecial_e2(3)
    assert e1.order == e2.order == 27
    assert e1.exponent == 3
    assert e2.exponent == 9
    ok, _ = isomorphic(e1, e2)
    assert not ok


@pytest.mark.parametrize("p", [3, 5])
def test_extraspecial_invariants(p):
    for g in (extension_group(e1_spec(p)), extraspecial_e2(p)):
        assert g.order == p ** 3
        assert g.center().order == p
        assert g.derived_subgroup().order == p


@pytest.mark.parametrize("p", [2, 4, 9])
def test_extraspecial_groups_refuse_p_that_is_not_an_odd_prime(p):
    # E1 through its carrier, E2 by its own guard: with no check, E2(4)
    # and E2(9) were groups of order 64 and 729 that are not extraspecial
    for make in (lambda p: extension_group(e1_spec(p)), extraspecial_e2):
        with pytest.raises(ValueError):
            make(p)
