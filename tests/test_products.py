import itertools

import numpy as np
import pytest

from matrix_oracle import bfs_subgroups, tabulate
from paulidecomp.groupcore import (CapError, FiniteGroup, SubgroupHandle,
                                   extension_group)
from paulidecomp.heisenberg import extraspecial_e2
from paulidecomp.algebra import (D8, Q8, Carrier, e1_spec, field_make,
                                 heis_spec, lifted_spec, pauli_element,
                                 pauli_spec, prime_power)
from paulidecomp.heisenberg import heis_group
from paulidecomp.lifted import lifted_group
from paulidecomp import products
from paulidecomp.pauli import pauli_group
from paulidecomp.claims import corollary43_check
from paulidecomp.products import (classify_special, decompose_pauli_chain,
                                  extraspecial_decompose, identify_factor,
                                  just_nonabelian, minimal_nonabelian,
                                  pauli_chain_subgroups, weak_central_chain)


def test_identify_factor():
    assert identify_factor(extension_group(D8)) == "D8"
    assert identify_factor(extension_group(Q8)) == "Q8"
    assert identify_factor(extension_group(e1_spec(3))) == "E1(3)"
    assert identify_factor(extraspecial_e2(3)) == "E2(3)"
    assert identify_factor(pauli_group(pauli_spec(2, 1, 1))) == "P(1,2)"


def test_verify_weak_central_p22():
    spec = pauli_spec(2, 1, 2)
    g = pauli_group(spec)
    classification, links, commutators = weak_central_chain(
        g, pauli_chain_subgroups(g, spec))
    # [H1,H2] = 1 != Z(G), so only the weak condition holds
    assert classification == "weak_central"
    assert [x.order for x in links] == [4]
    assert [c.order for c in commutators] == [1]


def test_weak_central_rejects_nongenerating_pair():
    g = pauli_group(pauli_spec(2, 1, 2))
    z = g.center()
    classification, _, _ = weak_central_chain(g, [z, z])
    assert classification == "none"


def _generated(g, seed):
    """The subgroup generated by ``seed``, by products until closed."""
    t = g.table.tolist()
    members = set(seed) | {g.identity}
    while True:
        grown = members | {t[a][b] for a in members for b in members}
        if grown == members:
            return members
        members = grown


def _pair_by_definition(g, h, k):
    """(classification, link, commutator) of the pair H, K from the
    definitions, as member sets."""
    elements, t = range(g.order), g.table.tolist()
    inv = {x: next(y for y in elements if t[x][y] == g.identity)
           for x in elements}
    center = {z for z in elements
              if all(t[z][x] == t[x][z] for x in elements)}
    hs, ks = set(h.members), set(k.members)
    link = hs & ks
    comm = _generated(g, {t[t[inv[a]][inv[b]]][t[a][b]]
                          for a in hs for b in ks})
    covers = {t[a][b] for a in hs for b in ks} == set(elements)
    if not covers or not comm <= center:
        return "none", link, comm
    if comm == center and link == center:
        return "central", link, comm
    return "weak_central", link, comm


@pytest.mark.parametrize("make", [
    lambda: extension_group(D8), lambda: extension_group(Q8),
    lambda: extraspecial_e2(3),
    lambda: pauli_group(pauli_spec(2, 1, 1)),
    lambda: heis_group(heis_spec(field_make(3, 1))),
    lambda: _dihedral(8),
], ids=["D8", "Q8", "E2(3)", "P(1,2)", "H(GF(3))", "D16"])
def test_weak_central_chain_against_definition(make):
    # D16 has class 3: some covering pairs have a commutator outside Z(G)
    g = make()
    normal = [h for h in g.subgroups_all() if h.is_normal()]
    seen = set()
    for h in normal:
        for k in normal:
            classification, (link,), (comm,) = weak_central_chain(g, [h, k])
            expected = _pair_by_definition(g, h, k)
            assert (classification, set(link.members),
                    set(comm.members)) == expected
            seen.add(classification)
    assert {"none", "weak_central"} <= seen


def test_weak_central_chain_central_pair_d8():
    g = extension_group(D8)
    fours = [h for h in g.subgroups_all() if h.order == 4]
    rotations = next(h for h in fours if h.is_cyclic())
    klein = next(h for h in fours if not h.is_cyclic())
    classification, links, comms = weak_central_chain(g, [rotations, klein])
    assert classification == "central"
    assert links == comms == [g.center()]


def test_weak_central_chain_rejects_non_normal_factor():
    g = extension_group(D8)
    reflection = next(h for h in g.subgroups_all()
                      if h.order == 2 and not h.is_normal())
    with pytest.raises(ValueError):
        weak_central_chain(g, [g.whole_subgroup(), reflection])


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
    ok, _ = just_nonabelian(extension_group(D8))
    assert ok
    ok, _ = just_nonabelian(pauli_group(pauli_spec(2, 1, 1)))
    assert ok
    # the two-qubit group is also just nonabelian: every nontrivial normal
    # subgroup meets the cyclic center, hence contains the derived subgroup
    ok, _ = just_nonabelian(pauli_group(pauli_spec(2, 1, 2)))
    assert ok


def test_minimal_nonabelian():
    ok, _ = minimal_nonabelian(extension_group(D8))
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
    lambda: extension_group(D8), lambda: extension_group(Q8),
    lambda: extension_group(e1_spec(3)), lambda: extraspecial_e2(3),
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


OTHER_GROUPS = pytest.mark.parametrize("make", [
    lambda: _dihedral(3), lambda: _dihedral(5), lambda: _dihedral(6),
    lambda: _dihedral(8),
    lambda: _direct_product(extension_group(Q8), _dihedral(1)),
    lambda: _direct_product(extension_group(D8), _dihedral(1)),
], ids=["D6", "D10", "D12", "D16", "Q8xZ2", "D8xZ2"])
RELABELLED = pytest.mark.parametrize("relabel", [False, True],
                                     ids=["plain", "by_order"])


@OTHER_GROUPS
@RELABELLED
def test_minimal_nonabelian_other_groups(make, relabel):
    # D12 has a nonabelian proper subgroup although its first noncommuting
    # pair generates it; in Q8xZ2 only elements of order 4 generate one
    g = _by_element_order(make()) if relabel else make()
    _check_minimal_nonabelian(
        g, [h for h in _oracle_handles(g) if h.order < g.order])


def _oracle_handles(g):
    """Handles of the oracle's subgroups of G, each checked closed."""
    handles = [SubgroupHandle(g, m) for m in bfs_subgroups(g)]
    assert all(g.closure_indices(h.members) == h.members for h in handles)
    return handles


def _schedules(monkeypatch, count):
    """Patch the batch schedule of the classification flags in turn to
    the default, one row per batch and one batch of ``count`` rows; yield
    after each."""
    default = products._blocks
    for blocks in (default,
                   lambda n: (slice(k, k + 1) for k in range(n)),
                   lambda n: [slice(0, count)]):
        monkeypatch.setattr(products, "_blocks", blocks)
        yield
    monkeypatch.setattr(products, "_blocks", default)


def _check_just_nonabelian(g, monkeypatch):
    """Just nonabelian iff every nontrivial normal subgroup contains G';
    a negative answer names the least element whose normal closure
    misses G', with that closure's order and index, whatever the batch
    schedule."""
    derived = set(g.derived_subgroup().members)
    normal = [h for h in _oracle_handles(g)
              if h.order > 1 and h.is_normal()]
    answers = [just_nonabelian(g) for _ in _schedules(monkeypatch, g.order)]
    assert answers[1:] == answers[:-1]
    ok, facts = answers[0]
    assert ok == all(derived <= set(h.members) for h in normal)
    if not ok:
        least, closure = next(
            (x, c) for x in range(g.order)
            for c in [g.closure_indices(g.conjugates([x]))]
            if x != g.identity and not derived <= set(c))
        assert facts == {
            "normal_subgroup_order": len(closure),
            "witness_element": repr(g.elements[least]),
            "quotient_order": g.order // len(closure),
        }


@OTHER_GROUPS
@RELABELLED
def test_just_nonabelian_against_definition(make, relabel, monkeypatch):
    _check_just_nonabelian(_by_element_order(make()) if relabel else make(),
                           monkeypatch)


def test_just_nonabelian_witness_is_least_of_its_class(monkeypatch):
    # in S4 the first element whose normal closure (the Klein four-group)
    # misses G' = A4 is a double transposition, in a class of three
    perms = list(itertools.permutations(range(4)))
    s4 = FiniteGroup(perms, tabulate(perms,
                                     lambda a, b: tuple(b[i] for i in a)))
    ok, facts = just_nonabelian(s4)
    assert not ok and facts["witness_element"] == "(1, 0, 3, 2)"
    _check_just_nonabelian(s4, monkeypatch)


def _first_proper_pair(g):
    """The evidence of ``minimal_nonabelian`` by a scalar scan: over the
    least generator of each cyclic subgroup, in increasing (i, j) order,
    the first noncommuting pair whose closure is proper."""
    cyclic = [g.closure_indices([x]) for x in range(g.order)]
    reps = [x for x in range(g.order)
            if min(y for y in cyclic[x] if cyclic[y] == cyclic[x]) == x]
    for i, x in enumerate(reps):
        for y in reps[i + 1:]:
            if g.table[x, y] != g.table[y, x]:
                closed = g.closure_indices([x, y])
                if len(closed) < g.order:
                    return {"nonabelian_subgroup_order": len(closed),
                            "generators": [repr(g.elements[x]),
                                           repr(g.elements[y])]}
    return None


@pytest.mark.parametrize("make", [
    lambda: pauli_group(pauli_spec(2, 1, 1)),
    lambda: pauli_group(pauli_spec(2, 1, 2)),
    lambda: pauli_group(pauli_spec(3, 1, 2)),
    lambda: _by_element_order(_dihedral(6)),
    lambda: _by_element_order(_dihedral(8)),
    lambda: _by_element_order(_direct_product(extension_group(Q8),
                                              _dihedral(1))),
    lambda: _by_element_order(_direct_product(extension_group(D8),
                                              _dihedral(1))),
], ids=["P(1,2)", "P(2,2)", "P(2,3)", "D12", "D16", "Q8xZ2", "D8xZ2"])
def test_minimal_nonabelian_evidence_is_first_proper_pair(make, monkeypatch):
    g = make()
    expected = _first_proper_pair(g)
    for _ in _schedules(monkeypatch, g.order ** 2):
        assert minimal_nonabelian(g) == (False, expected)


def test_classify_special():
    flags = classify_special(extension_group(D8))
    assert set(vars(flags)) == {"just_nonabelian", "minimal_nonabelian",
                                "evidence"}
    assert flags.minimal_nonabelian
    flags = classify_special(pauli_group(pauli_spec(2, 1, 1)))
    assert flags.just_nonabelian
    # whether G is extraspecial is decided by extraspecial_decompose
    atom = ["order p^3 extraspecial group is irreducible"]
    assert extraspecial_decompose(extension_group(D8)).notes == atom
    assert extraspecial_decompose(extraspecial_e2(3)).notes == atom
    assert extraspecial_decompose(pauli_group(pauli_spec(2, 1, 1))).notes \
        == ["group is not extraspecial: no splitting into order p^3 factors"]


# A second oracle for the flags, from three cached invariants: a
# nonabelian p-group G is just nonabelian iff |G'| = p and Z(G) is cyclic
# (every nontrivial normal subgroup meets Z(G), so it contains the one
# subgroup of order p of a cyclic Z(G)), and minimal nonabelian iff
# |G'| = p and G needs two generators, |G : Phi(G)| = p^2 (Redei 1947;
# Burnside's basis theorem).
FLAG_GROUPS = {
    "D8": lambda: extension_group(D8),
    "Q8": lambda: extension_group(Q8),
    "E1(3)": lambda: extension_group(e1_spec(3)),
    "E2(3)": lambda: extraspecial_e2(3),
    "E1(5)": lambda: extension_group(e1_spec(5)),
    **{f"P({n},2)": (lambda n=n: pauli_group(pauli_spec(2, 1, n)))
       for n in (1, 2, 3)},
    **{f"P({n},{p ** m})": (lambda p=p, m=m, n=n:
                            pauli_group(pauli_spec(p, m, n)))
       for p, m, n in ((3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1),
                       (3, 2, 1))},
    **{f"Plift{pmn}": (lambda pmn=pmn: lifted_group(lifted_spec(*pmn)))
       for pmn in ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (2, 1, 3),
                   (3, 1, 2))},
    "H(GF(3))": lambda: heis_group(heis_spec(field_make(3, 1))),
    "H(GF(5))": lambda: heis_group(heis_spec(field_make(5, 1))),
    "H(GF(9))": lambda: heis_group(heis_spec(field_make(3, 2))),
    "Hred(GF(9))": lambda: heis_group(heis_spec(field_make(3, 2),
                                                reduced=True)),
    "H(Z/4)": lambda: heis_group(heis_spec(Carrier(2, 2, False))),
    "H(Z/4^2)": lambda: heis_group(heis_spec(Carrier(2, 2, False), 2)),
    "H(Z/9)": lambda: heis_group(heis_spec(Carrier(3, 2, False))),
}


@pytest.mark.parametrize("make", FLAG_GROUPS.values(), ids=FLAG_GROUPS)
def test_classification_flags_match_derived_centre_and_frattini(make):
    g = make()
    p, _ = prime_power(g.order)
    assert not g.is_abelian
    centre = g.center_indices
    cyclic_centre = max(g.element_orders[x] for x in centre) == len(centre)
    small_derived = len(g.derived_indices) == p
    two_generated = g.order == p * p * len(g.frattini_indices)
    flags = classify_special(g)
    assert flags.just_nonabelian == (small_derived and cyclic_centre)
    assert flags.minimal_nonabelian == (small_derived and two_generated)


def test_extraspecial_decompose_atoms():
    for g in map(extension_group, (D8, Q8, e1_spec(3))):
        rep = extraspecial_decompose(g)
        assert rep.classification == "none"
        assert len(rep.factors) == 1


def test_extraspecial_decompose_pins_factors(monkeypatch):
    """On P(2,3) the splitting takes the first noncommuting pair in
    row-major order, (Z_2, X_2), then (Z_1, X_1) in its centralizer."""
    spec = pauli_spec(3, 1, 2)
    g = pauli_group(spec)
    pairs, folds = [], []
    generated = FiniteGroup.generated_subgroup
    fold = products.weak_central_chain

    def record_pair(self, gens):
        pairs.append([self.elements[i] for i in gens])
        return generated(self, gens)

    def record_fold(group, factors):
        folds.append([h.members for h in factors])
        return fold(group, factors)

    monkeypatch.setattr(FiniteGroup, "generated_subgroup", record_pair)
    monkeypatch.setattr(products, "weak_central_chain", record_fold)
    rep = extraspecial_decompose(g)
    monkeypatch.undo()
    x = [pauli_element(spec, j, x=1) for j in (0, 1)]
    z = [pauli_element(spec, j, z=1) for j in (0, 1)]
    assert pairs == [[z[1], x[1]], [z[0], x[0]]]
    assert folds == [[g.generated_subgroup([z[1], x[1]]).members,
                      g.generated_subgroup([z[0], x[0]]).members]]
    assert rep.classification == "weak_central"


def test_extraspecial_decompose_reports_nonextraspecial():
    # P(1,2) has center of order 4, so it is not extraspecial: a well-formed
    # group, reported as one factor, not rejected as bad input
    rep = extraspecial_decompose(pauli_group(pauli_spec(2, 1, 1)))
    assert rep.classification == "none"
    assert [f["order"] for f in rep.factors] == [16]
    assert rep.links == [] and rep.commutators == []
    assert "not extraspecial" in rep.notes[0]


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
