import numpy as np
import pytest

from paulidecomp.groupcore import CapError, FiniteGroup
from paulidecomp.heisenberg import (dihedral8, extraspecial_e1,
                                    extraspecial_e2, quaternion8)
from paulidecomp.pauli import pauli_group, pauli_spec
from paulidecomp.claims import corollary43_check
from paulidecomp.products import (classify_special, decompose_pauli_chain,
                                  extraspecial_decompose, identify_factor,
                                  just_nonabelian, minimal_nonabelian,
                                  pauli_chain_subgroups, verify_weak_central)


def test_identify_factor():
    assert identify_factor(dihedral8()) == "D8"
    assert identify_factor(quaternion8()) == "Q8"
    assert identify_factor(extraspecial_e1(3)) == "E1(3)"
    assert identify_factor(extraspecial_e2(3)) == "E2(3)"
    assert identify_factor(pauli_group(pauli_spec(2, 1, 1))) == "P(1,2)"


def test_verify_weak_central_p22():
    spec = pauli_spec(2, 1, 2)
    g = pauli_group(spec)
    h1, h2 = pauli_chain_subgroups(g, spec)
    rep = verify_weak_central(g, h1, h2)
    # [H1,H2] = 1 != Z(G), so only the weak condition holds
    assert rep.classification == "weak_central"
    assert rep.intersections == [4]
    assert rep.commutators == [1]


def test_weak_central_rejects_nongenerating_pair():
    g = pauli_group(pauli_spec(2, 1, 2))
    z = g.center()
    rep = verify_weak_central(g, z, z)
    assert rep.classification == "none"


def test_decompose_pauli_chain_n2():
    rep = decompose_pauli_chain(2)
    assert rep.classification == "weak_central"
    assert len(rep.factors) == 2
    assert all(f["isomorphism_type"] == "P(1,2)" for f in rep.factors)
    assert len(rep.links) == 1
    assert rep.links[0]["order"] == 4
    assert rep.links[0]["central"]


def test_decompose_pauli_chain_n3():
    rep = decompose_pauli_chain(3)
    assert len(rep.factors) == 3
    assert all(f["isomorphism_type"] == "P(1,2)" for f in rep.factors)
    assert len(rep.links) == 2
    assert rep.links[1]["order"] == 4


def test_just_nonabelian():
    ok, _ = just_nonabelian(dihedral8())
    assert ok
    ok, _ = just_nonabelian(pauli_group(pauli_spec(2, 1, 1)))
    assert ok
    # the two-qubit group is also just nonabelian: every nontrivial normal
    # subgroup meets the cyclic center, hence contains the derived subgroup
    ok, _ = just_nonabelian(pauli_group(pauli_spec(2, 1, 2)))
    assert ok


def test_minimal_nonabelian():
    ok, _ = minimal_nonabelian(dihedral8())
    assert ok
    # P(1,2) contains a nonabelian proper subgroup of order 8
    ok, facts = minimal_nonabelian(pauli_group(pauli_spec(2, 1, 1)))
    assert not ok
    assert facts["nonabelian_subgroup_order"] == 8
    ok, _ = minimal_nonabelian(pauli_group(pauli_spec(3, 1, 1)))
    assert ok
    ok, facts = minimal_nonabelian(pauli_group(pauli_spec(3, 1, 2)))
    assert not ok
    assert facts["nonabelian_subgroup_order"] == 27
    assert facts["generators"] == ["(0, (0, 0), (0, 1))",
                                   "(0, (0, 1), (0, 0))"]


def _check_minimal_nonabelian(g, proper):
    """Against the definition: nonabelian, and every proper subgroup
    (``proper``, handles in G or in a group containing it) abelian.  A
    negative answer must name two generators of a proper nonabelian
    subgroup of the stated order."""
    ok, facts = minimal_nonabelian(g)
    assert ok == (not g.is_abelian and all(h.is_abelian() for h in proper))
    if not ok and not g.is_abelian:
        index = {repr(e): i for i, e in enumerate(g.elements)}
        h = g.generated_subgroup([index[x] for x in facts["generators"]])
        assert h.order == facts["nonabelian_subgroup_order"] < g.order
        assert not h.is_abelian()


@pytest.mark.parametrize("make", [
    dihedral8, quaternion8,
    lambda: extraspecial_e1(3), lambda: extraspecial_e2(3),
    lambda: pauli_group(pauli_spec(2, 1, 1)),
    lambda: pauli_group(pauli_spec(3, 1, 1)),
    lambda: pauli_group(pauli_spec(2, 1, 2)),
], ids=["D8", "Q8", "E1(3)", "E2(3)", "P(1,2)", "P(1,3)", "P(2,2)"])
def test_minimal_nonabelian_against_definition(make):
    g = make()
    _check_minimal_nonabelian(
        g, [h for h in g.subgroups_all() if h.order < g.order])


def test_minimal_nonabelian_against_definition_p22_subgroups():
    # the subgroups of a subgroup H of P(2,2) are those of P(2,2) inside H
    subs = pauli_group(pauli_spec(2, 1, 2)).subgroups_all()
    sets = [set(h.members) for h in subs]
    for h, members in zip(subs, sets):
        _check_minimal_nonabelian(
            h.as_group(), [k for k, s in zip(subs, sets) if s < members])


def _dihedral(n):
    """D_2n with r^i s^j at index i + n j (n = 1 gives Z2)."""
    i, j = np.arange(2 * n) % n, np.arange(2 * n) // n
    table = ((i[:, None] + np.where(j[:, None], -i, i)) % n
             + n * (j[:, None] ^ j))
    return FiniteGroup(range(2 * n), table)


def _direct_product(g, h):
    t = g.table[:, None, :, None] * h.order + h.table[None, :, None, :]
    return FiniteGroup([(a, b) for a in g.elements for b in h.elements],
                       t.reshape(g.order * h.order, g.order * h.order))


def _by_element_order(g):
    """The same group with its elements listed by increasing order, so
    each element of order 4 comes after its square."""
    perm = sorted(range(g.order), key=lambda x: (g.element_orders[x], x))
    back = np.argsort(perm)
    return FiniteGroup([g.elements[x] for x in perm],
                       back[g.table[np.ix_(perm, perm)]])


@pytest.mark.parametrize("make", [
    lambda: _dihedral(3), lambda: _dihedral(5), lambda: _dihedral(6),
    lambda: _dihedral(8),
    lambda: _direct_product(quaternion8(), _dihedral(1)),
    lambda: _direct_product(dihedral8(), _dihedral(1)),
], ids=["D6", "D10", "D12", "D16", "Q8xZ2", "D8xZ2"])
@pytest.mark.parametrize("relabel", [False, True], ids=["plain", "by_order"])
def test_minimal_nonabelian_other_groups(make, relabel):
    # D12 has a nonabelian proper subgroup although its first noncommuting
    # pair generates it; in Q8xZ2 only elements of order 4 generate one
    g = _by_element_order(make()) if relabel else make()
    _check_minimal_nonabelian(
        g, [h for h in g.subgroups_all() if h.order < g.order])


def test_classify_special():
    flags = classify_special(dihedral8())
    assert flags.extraspecial
    assert flags.minimal_nonabelian
    flags = classify_special(pauli_group(pauli_spec(2, 1, 1)))
    assert not flags.extraspecial
    assert flags.generalized_extraspecial
    assert flags.just_nonabelian
    flags = classify_special(extraspecial_e2(3))
    assert flags.extraspecial


def test_extraspecial_decompose_atoms():
    for g in (dihedral8(), quaternion8(), extraspecial_e1(3)):
        rep = extraspecial_decompose(g)
        assert rep.classification == "none"
        assert len(rep.factors) == 1


def test_extraspecial_decompose_rejects_nonextraspecial():
    # P(1,2) has center of order 4, so it is not extraspecial
    with pytest.raises(ValueError):
        extraspecial_decompose(pauli_group(pauli_spec(2, 1, 1)))


def test_cor43_m1_confirmed():
    rep = corollary43_check(3, 1, 1)
    assert rep.status == "confirmed"
    assert rep.witness["reduced_variant_isomorphic"]
    rep = corollary43_check(3, 1, 2)
    assert rep.status == "confirmed"


def test_cor43_m2_reduced_reading():
    rep = corollary43_check(3, 2, 1)
    assert rep.status == "inconsistent_in_paper"
    assert rep.witness["reduced_variant_isomorphic"]
    assert not rep.witness["full_variant_isomorphic"]
    assert "supported_reading" in rep.witness


def test_minimal_nonabelian_caps_order():
    with pytest.raises(CapError):
        minimal_nonabelian(_dihedral(600))
