"""Weak central products, the register chain decomposition of qubit Pauli
groups, the extraspecial splitting, and structural classification flags.
The claim verdicts built on them (among them the Heisenberg comparison)
live in ``claims``.

Conventions.  Every decomposition is read by one fold,
``weak_central_chain``, over normal factors H_1, ..., H_n of G.  With
A_j = H_1...H_j, link j is A_j cap H_{j+1} and commutator j is
[A_j, H_{j+1}].  The chain presents G as a weak central product when
A_n = G and every commutator lies in Z(G); the product is central when
in addition every link and every commutator equals Z(G), and there is
at least one link.  Since the factors are normal, each commutator lies
in its link.
"""

from __future__ import annotations

import numpy as np

from .groupcore import (BLOCK, ISO_ORDER_CAP, CapError, FiniteGroup,
                        GroupStructureError, SubgroupHandle, _blocks,
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


def weak_central_chain(g: FiniteGroup, factors) -> tuple[str, list, list]:
    """The one fold over normal factors H_1, ..., H_n of G (see the module
    docstring): ``(classification, links, commutators)``, with link j and
    commutator j as subgroup handles for j = 1 .. n-1."""
    if not all(h.is_normal() for h in factors):
        raise ValueError("every factor must be normal in G")
    center = g.center()
    acc, links, commutators = factors[0], [], []
    for h in factors[1:]:
        links.append(acc.intersect(h))
        commutators.append(acc.commutator_with(h))
        # a product of normal subgroups is a normal subgroup
        acc = SubgroupHandle(g, acc.product_set(h))
    if acc.order != g.order or not all(c <= center for c in commutators):
        return "none", links, commutators
    central = bool(links) and all(x == center for x in links + commutators)
    return ("central" if central else "weak_central"), links, commutators


def _chain_report(g: FiniteGroup, factors, fold, notes) -> DecompositionReport:
    """The report of a decomposition into ``factors`` read by ``fold``, the
    result of ``weak_central_chain``."""
    classification, links, commutators = fold
    return DecompositionReport(
        group=g.name or f"order{g.order}",
        factors=[{"order": h.order,
                  "isomorphism_type": identify_factor(h.as_group())}
                 for h in factors],
        links=[{"order": x.order, "source": "intersection"} for x in links],
        commutators=[c.order for c in commutators],
        intersections=[x.order for x in links],
        classification=classification,
        notes=notes,
    )


def verify_weak_central(g: FiniteGroup, h: SubgroupHandle,
                        k: SubgroupHandle) -> DecompositionReport:
    """Check the weak central product conditions for normal H, K <= G."""
    fold = weak_central_chain(g, [h, k])
    classification, (link,), _ = fold
    notes = []
    # the commutator lies in the link, so a trivial link makes G = H x K
    if classification != "none" and link.order == 1:
        notes.append("factors intersect trivially: the product is direct")
    return _chain_report(g, [h, k], fold, notes)


def pauli_chain_subgroups(g: FiniteGroup, spec) -> list[SubgroupHandle]:
    """The register factors H_j = <U, X_j, Z_j> with U the order-4 phase."""
    return [g.generated_subgroup([pauli_element(spec, phase=1),
                                  pauli_element(spec, j, x=1),
                                  pauli_element(spec, j, z=1)])
            for j in range(spec.n)]


def decompose_pauli_chain(n: int) -> DecompositionReport:
    """Iterated weak central product P_{n,2} = H_1 * H_2 * ... * H_n with
    register factors H_j = <U, X_j, Z_j> and links L_j = (H_1...H_j) cap
    H_{j+1}, read by ``weak_central_chain``.

    The commutator [H_1...H_j, H_{j+1}] is reported alongside each link:
    distinct registers commute, so it has order 1 and never equals the
    order-4 link (the fold therefore never reads ``central``)."""
    spec = pauli_spec(2, 1, n)
    g = pauli_group(spec)
    factors = pauli_chain_subgroups(g, spec)
    fold = weak_central_chain(g, factors)
    _, links, _ = fold
    notes = []
    if n >= 2:
        notes.append("links are amalgamated intersections; the pairwise "
                     "commutator subgroups have order <= 2 and are listed "
                     "separately")
    rep = _chain_report(g, factors, fold, notes)
    for info in rep.factors:
        info["normal"] = True  # the fold raised otherwise
    center = g.center()
    for info, link in zip(rep.links, links):
        info["central"] = link <= center
    return rep


# ---------------------------------------------------------------------------
# classification flags
# ---------------------------------------------------------------------------

def just_nonabelian(g: FiniteGroup) -> tuple[bool, dict]:
    """Nonabelian with every proper quotient abelian.  Equivalent test:
    the derived subgroup is contained in the normal closure of every
    nontrivial element (any nontrivial normal subgroup is a union of
    such closures).  Conjugates have one normal closure, the subgroup
    generated by their class, so each class other than {e} is closed
    once, as a seed row of ``closures`` padded with the identity, in the
    order of its least member and in the batches of ``_blocks``; the
    first class that fails names that member, which is the least failing
    element."""
    if g.is_abelian:
        return False, {"reason": "abelian"}
    classes = [c for c in g.conjugacy_classes if c != (g.identity,)]
    derived = np.array(g.derived_indices)
    for block in _blocks(len(classes)):
        batch = classes[block]
        width = max(map(len, batch))
        closed = g.closures([c + (g.identity,) * (width - len(c))
                             for c in batch])
        proper = np.flatnonzero(~closed[:, derived].all(axis=1))
        if len(proper):
            order = int(np.count_nonzero(closed[proper[0]]))
            return False, {
                "normal_subgroup_order": order,
                "witness_element": repr(g.elements[batch[proper[0]][0]]),
                "quotient_order": g.order // order,
            }
    return True, {}


def _noncommuting_pairs(g: FiniteGroup, reps: np.ndarray):
    """The pairs (x, y) of members of ``reps`` with x before y and
    xy != yx, in (x, y) order, one array per block of rows x of
    ``_blocks``, the first of about BLOCK products x y."""
    for rows in _blocks(len(reps), max(1, BLOCK // len(reps))):
        x, y = reps[rows], reps[rows.start + 1:]
        # entry [i, j] pairs x[i] with y[j], which comes after it iff j >= i
        r, c = np.nonzero(np.triu(g.table[x[:, None], y]
                                  != g.table[y[:, None], x].T))
        yield np.stack([x[r], y[c]], axis=1)


def minimal_nonabelian(g: FiniteGroup) -> tuple[bool, dict]:
    """Nonabelian with every proper subgroup abelian.  Decided exactly:
    G is minimal nonabelian iff every noncommuting pair generates G (a
    nonabelian proper subgroup contains such a pair, and conversely).
    Since <x, y> depends only on <x> and <y>, the pairs range over one
    generator per cyclic subgroup, the least index among the generators,
    in increasing (i, j) order, closed as seed rows of ``closures`` in
    the batches of ``_blocks``; the first pair generating a proper
    subgroup is the evidence."""
    if g.is_abelian:
        return False, {"reason": "abelian"}
    if g.order > ISO_ORDER_CAP:
        raise CapError(f"minimal-nonabelian test capped at {ISO_ORDER_CAP}")
    orders = np.array(g.element_orders)
    full = np.arange(g.order)
    least, power = full.copy(), full
    for k in range(2, int(orders.max())):
        power = g.table[power, full]
        coprime = (np.gcd(k, orders) == 1) & (k < orders)
        least[coprime] = np.minimum(least[coprime], power[coprime])
    reps = np.flatnonzero(least == full)
    listed = _noncommuting_pairs(g, reps)
    pairs = np.empty((0, 2), dtype=np.intp)
    for block in _blocks(len(reps) * (len(reps) - 1) // 2):
        # list further rows of pairs until the batch is full
        while len(pairs) < block.stop and (
                more := next(listed, None)) is not None:
            pairs = np.concatenate([pairs, more])
        batch = pairs[block]
        if not len(batch):
            break
        closed = g.closures(batch)
        proper = np.flatnonzero(~closed.all(axis=1))
        if len(proper):
            return False, {
                "nonabelian_subgroup_order":
                    int(np.count_nonzero(closed[proper[0]])),
                "generators": [repr(g.elements[x]) for x in batch[proper[0]]],
            }
    return True, {}


def classify_special(g: FiniteGroup) -> ClassificationFlags:
    """Extraspecial / generalized extraspecial / just nonabelian / minimal
    nonabelian flags with evidence for the False cases."""
    p, _ = prime_power(g.order) or (None, None)
    center = g.center()
    derived = g.derived_subgroup()
    evidence: dict = {}

    extraspecial = bool(p and center.order == p and center == derived)
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
            "derived_in_center": derived <= center,
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
    (row-major over the members) and recurse on its centralizer, all
    within G.  Factors are identified against the reference families.  A
    group that is not extraspecial is reported as its own one factor,
    classified ``none``."""
    p, _ = prime_power(g.order) or (None, None)
    center = g.center()
    if p is None or center.order != p or center != g.derived_subgroup():
        return _chain_report(g, [g.whole_subgroup()], ("none", [], []),
                             ["group is not extraspecial: no splitting "
                              "into order p^3 factors"])
    factors = []
    current = g.whole_subgroup()
    while True:
        members = np.asarray(current.members)
        sub = g.table[np.ix_(members, members)]
        rows, cols = np.triu(sub != sub.T).nonzero()
        if not len(rows):
            break
        h = g.generated_subgroup(members[[rows[0], cols[0]]])
        factors.append(h)
        current = current.intersect(g.centralizer(h.members))
    if len(factors) == 1:
        # order p^3: the atom, no proper splitting
        return _chain_report(g, factors, ("none", [], []),
                             ["order p^3 extraspecial group is irreducible"])
    fold = weak_central_chain(g, factors)
    # every commutator lies in G' = Z(G), so only a short product fails
    if fold[0] == "none":
        raise GroupStructureError(
            "extraspecial splitting did not cover the group")
    return _chain_report(g, factors, fold, [])
