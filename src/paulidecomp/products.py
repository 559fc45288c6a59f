"""Weak central products, the register chain decomposition of qubit Pauli
groups, and structural classification flags.  The claim verdicts built
on them (among them the Heisenberg comparison) live in ``claims``.

Conventions.  For normal subgroups H, K of G, the pair presents G as a
weak central product when G = HK and [H, K] <= Z(G); the product is
central when additionally [H, K] = H cap K = Z(G).  Since H and K are
normal, [H, K] <= H cap K always holds.
"""

from __future__ import annotations

import numpy as np

from .groupcore import (DEFAULT_CLOSURE_CAP, CapError, FiniteGroup,
                        GroupStructureError, SubgroupHandle,
                        abelian_invariants, isomorphic)
from .heisenberg import (dihedral8, extraspecial_e1, extraspecial_e2,
                         quaternion8)
from .algebra import is_prime, prime_power
from .pauli import pauli_element, pauli_group, pauli_spec
from .reports import ClassificationFlags, DecompositionReport


def reference_group(name: str, p: int | None = None) -> FiniteGroup:
    """Concrete realizations of D8, Q8, E1(p), E2(p)."""
    key = name.lower()
    if key == "d8":
        return dihedral8()
    if key == "q8":
        return quaternion8()
    if key in ("e1", "e2"):
        if p is None or not is_prime(p) or p == 2:
            raise ValueError("E1/E2 require an odd prime p")
        return extraspecial_e1(p) if key == "e1" else extraspecial_e2(p)
    raise ValueError(f"unknown reference group {name!r}")


def identify_factor(g: FiniteGroup) -> str:
    """Isomorphism type of a factor against the reference families, by
    oracle, never by name.  Falls back to an invariant string."""
    n = g.order
    if n == 8:
        for ref_name in ("d8", "q8"):
            ok, _ = isomorphic(g, reference_group(ref_name))
            if ok:
                return ref_name.upper()
    p, k = prime_power(n) or (None, None)
    if k == 3 and p > 2:
        for ref_name in ("e1", "e2"):
            ok, _ = isomorphic(g, reference_group(ref_name, p))
            if ok:
                return f"{ref_name.upper()}({p})"
    if g.is_abelian:
        return "abelian" + str(list(abelian_invariants(g)))
    p12 = pauli_spec(2, 1, 1)
    if n == p12.order:
        ok, _ = isomorphic(g, pauli_group(p12))
        if ok:
            return "P(1,2)"
    return f"order{n}-exp{g.exponent}"


def verify_weak_central(g: FiniteGroup, h: SubgroupHandle,
                        k: SubgroupHandle) -> DecompositionReport:
    """Check the weak central product conditions for normal H, K <= G."""
    if not h.is_normal() or not k.is_normal():
        raise ValueError("both factors must be normal in G")
    center = set(g.center().members)
    comm = h.commutator_with(k)
    inter = h.intersect(k)
    covers = len(h.product_set(k)) == g.order
    comm_central = set(comm.members) <= center
    if covers and comm_central:
        central = (set(comm.members) == center
                   and set(inter.members) == center)
        classification = "central" if central else "weak_central"
    else:
        classification = "none"
    notes = []
    if inter.order == 1 and comm.order == 1 and covers:
        notes.append("factors intersect trivially: the product is direct")
    return DecompositionReport(
        group=g.name or f"order{g.order}",
        factors=[{"order": h.order, "isomorphism_type": identify_factor(h.as_group())},
                 {"order": k.order, "isomorphism_type": identify_factor(k.as_group())}],
        links=[{"order": inter.order, "source": "intersection"}],
        commutators=[comm.order],
        intersections=[inter.order],
        classification=classification,
        notes=notes,
    )


def pauli_chain_subgroups(g: FiniteGroup, spec) -> list[SubgroupHandle]:
    """The register factors H_j = <U, X_j, Z_j> with U the order-4 phase."""
    return [g.generated_subgroup([pauli_element(spec, phase=1),
                                  pauli_element(spec, j, x=1),
                                  pauli_element(spec, j, z=1)])
            for j in range(spec.n)]


def decompose_pauli_chain(
        n: int, closure_cap: int = DEFAULT_CLOSURE_CAP) -> DecompositionReport:
    """Iterated weak central product P_{n,2} = H_1 * H_2 * ... * H_n with
    register factors H_j = <U, X_j, Z_j> and links L_j = (H_1...H_j) cap
    H_{j+1}.

    The commutator [H_1...H_j, H_{j+1}] is reported alongside each link:
    in the qubit phase-space model all commutators land in <-I>, so the
    commutator subgroup of two distinct register factors has order at
    most 2 and never equals the order-4 link."""
    if n < 1 or n > 3:
        raise CapError("chain decomposition implemented for 1 <= n <= 3")
    spec = pauli_spec(2, 1, n)
    g = pauli_group(spec, closure_cap)
    factors = pauli_chain_subgroups(g, spec)
    center = set(g.center().members)
    factor_info = [{
        "order": h.order,
        "isomorphism_type": identify_factor(h.as_group(name=f"H{j + 1}")),
        "normal": h.is_normal(),
    } for j, h in enumerate(factors)]

    links, commutators, intersections = [], [], []
    classification = "weak_central"
    notes = []
    acc = factors[0]
    for j in range(1, n):
        nxt = factors[j]
        comm = acc.commutator_with(nxt)
        inter = acc.intersect(nxt)
        prod = g.subgroup(acc.product_set(nxt))
        if not (set(comm.members) <= center):
            classification = "none"
        links.append({"order": inter.order, "source": "intersection",
                      "central": set(inter.members) <= center})
        commutators.append(comm.order)
        intersections.append(inter.order)
        acc = prod
    if acc.order != g.order:
        classification = "none"
    if n >= 2:
        notes.append("links are amalgamated intersections; the pairwise "
                     "commutator subgroups have order <= 2 and are listed "
                     "separately")
    return DecompositionReport(
        group=g.name,
        factors=factor_info,
        links=links,
        commutators=commutators,
        intersections=intersections,
        classification=classification,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# classification flags
# ---------------------------------------------------------------------------

def just_nonabelian(g: FiniteGroup) -> tuple[bool, dict]:
    """Nonabelian with every proper quotient abelian.  Equivalent test:
    the derived subgroup is contained in the normal closure of every
    nontrivial element (any nontrivial normal subgroup is a union of
    such closures)."""
    if g.is_abelian:
        return False, {"reason": "abelian"}
    derived = set(g.derived_subgroup().members)
    for i in range(g.order):
        if i == g.identity:
            continue
        nc = set(g.normal_closure([i]).members)
        if not derived <= nc:
            witness = g.normal_closure([i])
            return False, {
                "normal_subgroup_order": witness.order,
                "witness_element": repr(g.elements[i]),
                "quotient_order": g.order // witness.order,
            }
    return True, {}


def minimal_nonabelian(g: FiniteGroup) -> tuple[bool, dict]:
    """Nonabelian with every proper subgroup abelian.  Decided exactly:
    G is minimal nonabelian iff every noncommuting pair generates G (a
    nonabelian proper subgroup contains such a pair, and conversely).
    Since <x, y> depends only on <x> and <y>, the pairs range over one
    generator per cyclic subgroup, the least index among the generators,
    in increasing (i, j) order; the first pair generating a proper
    subgroup is the evidence."""
    if g.is_abelian:
        return False, {"reason": "abelian"}
    if g.order > 1024:
        raise CapError("minimal-nonabelian test capped at 1024")
    orders = np.array(g.element_orders)
    full = np.arange(g.order)
    least, power = full.copy(), full
    for k in range(2, int(orders.max())):
        power = g.table[power, full]
        coprime = (np.gcd(k, orders) == 1) & (k < orders)
        least[coprime] = np.minimum(least[coprime], power[coprime])
    reps = np.flatnonzero(least == full)
    sub = g.table[np.ix_(reps, reps)]
    for i, j in zip(*np.triu(sub != sub.T).nonzero()):
        closed = g.closure_indices([reps[i], reps[j]])
        if len(closed) < g.order:
            return False, {
                "nonabelian_subgroup_order": len(closed),
                "generators": [repr(g.elements[reps[i]]),
                               repr(g.elements[reps[j]])],
            }
    return True, {}


def classify_special(g: FiniteGroup) -> ClassificationFlags:
    """Extraspecial / generalized extraspecial / just nonabelian / minimal
    nonabelian flags with evidence for the False cases."""
    p, _ = prime_power(g.order) or (None, None)
    center = g.center()
    derived = g.derived_subgroup()
    evidence: dict = {}

    extraspecial = bool(p and center.order == p
                        and set(center.members) == set(derived.members))
    if not extraspecial:
        evidence["extraspecial"] = {
            "center_order": center.order, "derived_order": derived.order}

    generalized = bool(p and derived.order == p and center.is_cyclic())
    if generalized:
        # consistency facts: [G,G] <= Z(G), G/Z elementary abelian even rank
        quot = g.quotient(center)
        rank_ok = (quot.is_abelian and quot.exponent == p)
        _, log = prime_power(quot.order)
        evidence["generalized_extraspecial_facts"] = {
            "derived_in_center": set(derived.members) <= set(center.members),
            "central_quotient_elementary_abelian": rank_ok,
            "central_quotient_rank": log,
            "rank_even": log % 2 == 0,
        }
    else:
        evidence["generalized_extraspecial"] = {
            "derived_order": derived.order,
            "center_cyclic": center.is_cyclic(),
        }

    jna, jna_evidence = just_nonabelian(g)
    if jna_evidence:
        evidence["just_nonabelian"] = jna_evidence
    mna, mna_evidence = minimal_nonabelian(g)
    if mna_evidence:
        evidence["minimal_nonabelian"] = mna_evidence

    return ClassificationFlags(
        extraspecial=extraspecial,
        generalized_extraspecial=generalized,
        just_nonabelian=jna,
        minimal_nonabelian=mna,
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# extraspecial decomposition
# ---------------------------------------------------------------------------

def extraspecial_decompose(g: FiniteGroup) -> DecompositionReport:
    """Split an extraspecial group into a central product of order-p^3
    factors: take the subgroup generated by the first noncommuting pair
    (canonical order) and recurse on its centralizer.  Factors are
    identified against the reference families."""
    p, _ = prime_power(g.order) or (None, None)
    center = g.center()
    if p is None or center.order != p or \
            set(center.members) != set(g.derived_subgroup().members):
        raise ValueError("input is not extraspecial")
    if g.order > 256 and p == 2:
        raise CapError("extraspecial decomposition capped at order 256 "
                       "for p = 2")
    factor_groups = []
    current = g.whole_subgroup()
    while not current.is_abelian():
        cg = current.as_group()
        t = cg.table
        pair = None
        for i in range(cg.order):
            for j in range(i + 1, cg.order):
                if t[i, j] != t[j, i]:
                    pair = (i, j)
                    break
            if pair:
                break
        h_local = cg.subgroup(cg.closure_indices(pair))
        # map back to parent-group members
        h_members = [g.index[cg.elements[i]] for i in h_local.members]
        h = g.subgroup(g.closure_indices(h_members))
        k_members = [g.index[cg.elements[i]]
                     for i in cg.centralizer(h_local.members).members]
        factor_groups.append(h)
        current = g.subgroup(g.closure_indices(k_members))

    if len(factor_groups) == 0:
        raise ValueError("input is abelian")

    if len(factor_groups) == 1 and factor_groups[0].order == g.order:
        # order p^3: the atom, no proper splitting
        return DecompositionReport(
            group=g.name or f"order{g.order}",
            factors=[{"order": g.order,
                      "isomorphism_type": identify_factor(g)}],
            links=[], commutators=[], intersections=[],
            classification="none",
            notes=["order p^3 extraspecial group is irreducible"],
        )

    center_set = set(center.members)
    factor_info = []
    links, commutators, intersections = [], [], []
    classification = "central"
    acc = factor_groups[0]
    factor_info.append({"order": acc.order,
                        "isomorphism_type": identify_factor(acc.as_group())})
    for h in factor_groups[1:]:
        factor_info.append({"order": h.order,
                            "isomorphism_type": identify_factor(h.as_group())})
        comm = acc.commutator_with(h)
        inter = acc.intersect(h)
        prod = g.subgroup(acc.product_set(h))
        if not (set(comm.members) <= center_set):
            classification = "none"
        if not (set(comm.members) == center_set
                and set(inter.members) == center_set):
            if classification == "central":
                classification = "weak_central"
        links.append({"order": inter.order, "source": "intersection"})
        commutators.append(comm.order)
        intersections.append(inter.order)
        acc = prod
    if acc.order != g.order:
        raise GroupStructureError(
            "extraspecial splitting did not cover the group")
    return DecompositionReport(
        group=g.name or f"order{g.order}",
        factors=factor_info,
        links=links,
        commutators=commutators,
        intersections=intersections,
        classification=classification,
        notes=[],
    )
