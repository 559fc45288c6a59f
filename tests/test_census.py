import json

import pytest

from paulidecomp.algebra import field_make
from paulidecomp.census import (abelian_census, export_dot, hasse,
                                paper_figure_lattice)
from paulidecomp.claims import bounds_check, constructive_abelian_subgroups
from paulidecomp.heisenberg import (dihedral8, extraspecial_e2, heis_group,
                                    heis_spec, quaternion8)
from paulidecomp.lifted import lifted_group, lifted_spec
from paulidecomp.pauli import pauli_group, pauli_spec
from paulidecomp.reports import dump_json


def test_census_d8():
    res = abelian_census(dihedral8())
    assert res.c_ab == 8
    assert res.by_order == {2: 5, 4: 3}
    assert res.normal_count == 4
    assert res.nonnormal_count == 4


def test_census_p12():
    res = abelian_census(pauli_group(pauli_spec(2, 1, 1)))
    assert res.c_ab == 17
    assert res.by_order == {2: 7, 4: 7, 8: 3}
    # order-2 breakdown: one normal (center slice), six not
    assert res.by_order_normality[(2, True)] == 1
    assert res.by_order_normality[(2, False)] == 6


def test_census_json_round():
    res = abelian_census(dihedral8())
    d = res.to_json()
    assert d["c_ab"] == 8
    json.dumps(d)


def test_constructive_lower_bound():
    for n in (1, 2, 3):
        subs = constructive_abelian_subgroups(n)
        assert len(subs) >= 10 * n


def _isotropic_count(p: int, n: int, k: int) -> int:
    """N_p(n, k): the k-dimensional totally isotropic subspaces of the
    symplectic space F_p^(2n)."""
    num = den = 1
    for i in range(k):
        num *= p ** (2 * (n - i)) - 1
        den *= p ** (i + 1) - 1
    return num // den


def c_ab_closed_form(p: int, n: int) -> int:
    """c_ab(P(n, p)) counted from the isotropic image W of an abelian
    subgroup and its choice of phases."""
    if p == 2:
        return 2 + sum(_isotropic_count(2, n, k) * (1 + 2 ** (k + 1))
                       for k in range(1, n + 1))
    return sum(_isotropic_count(p, n, k) * (1 + p ** k)
               for k in range(n + 1)) - 1


@pytest.mark.parametrize("p, n, expected", [
    (2, 1, 17), (2, 2, 212), (2, 3, 5447), (3, 1, 17), (3, 2, 561)])
def test_census_matches_closed_form(p, n, expected):
    assert c_ab_closed_form(p, n) == expected
    assert abelian_census(pauli_group(pauli_spec(p, 1, n))).c_ab == expected


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n, k]_q: the k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_census_z2_7_matches_gaussian_binomials():
    """Z_2^7 (heis over GF(2), n = 3): 29,211 nontrivial subgroups, the
    subspaces of GF(2)^7, all normal, and only G is maximal abelian."""
    res = abelian_census(heis_group(heis_spec(field_make(2, 1), 3)))
    by_order = {2 ** k: _gaussian_binomial(7, k, 2) for k in range(1, 8)}
    assert by_order == {2: 127, 4: 2667, 8: 11811, 16: 11811, 32: 2667,
                        64: 127, 128: 1}
    assert res.by_order == by_order
    assert res.c_ab == sum(by_order.values()) == 29211
    assert res.normal_count == res.c_ab and res.nonnormal_count == 0
    assert res.maximal_abelian_orders == [128]


def test_bounds_check_n1():
    rep = bounds_check(1)
    assert rep.claim == "cor5.6"
    assert rep.status == "confirmed"
    assert rep.witness["c_ab_exact"] == 17


def test_bounds_check_n2_upper_refuted():
    rep = bounds_check(2)
    assert rep.status == "refuted_at_desk_scale"
    assert rep.witness["c_ab_exact"] == 212
    assert rep.witness["lower_bound_holds"]
    assert not rep.witness["upper_bound_holds"]


def test_hasse_d8():
    lat = hasse(dihedral8())
    assert len(lat.nodes) == 10
    assert len(lat.edges) == 15
    # every edge goes strictly up in order
    orders = [n["order"] for n in lat.nodes]
    for lo, hi in lat.edges:
        assert orders[lo] < orders[hi]


def test_paper_figures():
    d8 = paper_figure_lattice("d8")
    assert len(d8.nodes) == 10 and len(d8.edges) == 15
    p12 = paper_figure_lattice("p12")
    assert len(p12.nodes) == 13 and len(p12.edges) == 20
    heis = paper_figure_lattice("heis")
    assert len(heis.nodes) == 7 and len(heis.edges) == 9


def test_export_dot():
    dot = export_dot(paper_figure_lattice("d8"))
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    assert "shape=box" in dot  # the nonabelian top node
    assert "shape=ellipse" in dot


def test_export_json_round_trip():
    lat = paper_figure_lattice("heis")
    assert json.loads(dump_json(lat)) == lat.to_json()


def test_lattice_deterministic():
    a = dump_json(hasse(dihedral8()))
    b = dump_json(hasse(dihedral8()))
    assert a == b


def _strictly_above(sets):
    """For each member set, the indices of the sets strictly containing it."""
    return [{j for j, b in enumerate(sets) if a < b} for a in sets]


@pytest.mark.parametrize("make", [
    dihedral8,
    lambda: pauli_group(pauli_spec(2, 1, 1)),
    lambda: pauli_group(pauli_spec(2, 1, 2)),
    lambda: heis_group(heis_spec(field_make(3, 1))),
    quaternion8,
    lambda: extraspecial_e2(3),
    lambda: pauli_group(pauli_spec(3, 1, 1)),
    lambda: lifted_group(lifted_spec(2, 2, 1)),
], ids=["D8", "P(1,2)", "P(2,2)", "H(GF(3))", "Q8", "E2(3)", "P(1,3)",
        "lifted(2,2,1)"])
def test_containment_against_definitions(make):
    """Maximal subgroups, the Frattini subgroup, Hasse edges and maximal
    abelian orders, each against set-based definitions."""
    g = make()
    subs = g.subgroups_all()
    above = _strictly_above([set(h.members) for h in subs])

    whole = len(subs) - 1
    maximal = [h for h, up in zip(subs, above) if up == {whole}]
    assert g.maximal_subgroups() == maximal
    assert set(g.frattini().members) == set.intersection(
        *(set(h.members) for h in maximal))

    covers = sorted(((i, j) for i, up in enumerate(above)
                     for j in up - set().union(*(above[t] for t in up))),
                    key=lambda e: (subs[e[0]].order, subs[e[1]].order, e))
    assert hasse(g).edges == covers

    abelian = [h for h in subs if h.order > 1 and h.is_abelian()]
    abelian_above = _strictly_above([set(h.members) for h in abelian])
    assert abelian_census(g).maximal_abelian_orders == sorted(
        h.order for h, up in zip(abelian, abelian_above) if not up)
