"""The registered claim suite: one verdict function per claim id, plus an
aggregator.  Every claim is decided by the brute-force oracle; statuses
follow the convention in ``reports``.

Every verdict, including the per-instance checks the aggregates fold, is
a check returning ``(outcome, witness)`` under the ``_verdict`` decorator,
which times it and builds the one ``VerdictReport``; aggregate statuses
come from the one fold ``_worst_status``.
"""

from __future__ import annotations

import functools
import itertools
import time

from .algebra import Carrier, field_make, sigma_tau
from .census import abelian_census
from .groupcore import ISO_ORDER_CAP, FiniteGroup, isomorphic
from .heisenberg import (dihedral8, extraspecial_e1, extraspecial_e2,
                         heis_group, heis_spec)
from .lifted import lifted_group, lifted_spec, pi_image_group, pi_kernel
from .pauli import (p12_named_elements, p12_spec, p22_named_generators,
                    pauli_group, pauli_spec)
from .products import (classify_special, decompose_pauli_chain,
                       pauli_chain_subgroups, weak_central_chain)
from .reports import CLAIMS, VerdictReport

# statuses by increasing severity; an instance out of cap is not confirmed
_SEVERITY = {"confirmed": 0, "inconsistent_in_paper": 1,
             "refuted_at_desk_scale": 2, "out_of_cap": 2}


def _worst_status(statuses) -> str:
    """The aggregate of sub-verdict statuses: the worst of confirmed <
    inconsistent_in_paper < refuted_at_desk_scale, with out_of_cap
    counted as refuted."""
    worst = max(statuses, key=_SEVERITY.__getitem__)
    return "refuted_at_desk_scale" if worst == "out_of_cap" else worst


def _verdict(claim, inconsistent=False):
    """Turn a check returning ``(outcome, witness)`` into a timed verdict.

    ``claim`` (a claim id) and ``inconsistent`` may each be given as a
    function of the check's arguments.  A true outcome reads
    ``confirmed``, or ``inconsistent_in_paper`` when the registered
    statement contradicts itself; a false one reads
    ``refuted_at_desk_scale``; a status string (an aggregate from
    ``_worst_status``, or ``out_of_cap``) is kept as it is."""
    def decorate(check):
        @functools.wraps(check)
        def run(*args, **kwargs):
            def resolve(value):
                return value(*args, **kwargs) if callable(value) else value

            t0 = time.perf_counter()
            outcome, witness = check(*args, **kwargs)
            if isinstance(outcome, str):
                status = outcome
            elif outcome:
                status = "inconsistent_in_paper" if resolve(inconsistent) \
                    else "confirmed"
            else:
                status = "refuted_at_desk_scale"
            cid = resolve(claim)
            return VerdictReport(claim=cid, locator=CLAIMS[cid],
                                 status=status, witness=witness,
                                 wall_time_s=time.perf_counter() - t0)
        return run
    return decorate


# ---------------------------------------------------------------------------
# presentations and relations
# ---------------------------------------------------------------------------

@_verdict("lemma3.1")
def lemma31_presentation_check():
    """Evaluate both presentations of the one-qubit Pauli group and the
    derived structural facts (center, Frattini, abelianized quotient)."""
    s = p12_spec()
    G = pauli_group(s)
    e = s.identity()
    named = p12_named_elements()
    X, Y, Z = named["X"], named["Y"], named["Z"]
    u, a, b = named["u"], named["a"], named["b"]

    def pw(g, k):
        r = e
        for _ in range(k):
            r = s.mul(r, g)
        return r

    relations = {
        "X^2=1": pw(X, 2) == e,
        "Y^2=1": pw(Y, 2) == e,
        "Z^2=1": pw(Z, 2) == e,
        "(YZ)^4=1": pw(s.mul(Y, Z), 4) == e,
        "(ZX)^4=1": pw(s.mul(Z, X), 4) == e,
        "(XY)^4=1": pw(s.mul(X, Y), 4) == e,
        "u^4=1": pw(u, 4) == e,
        "a^2=1": pw(a, 2) == e,
        "u^2=b^2": pw(u, 2) == pw(b, 2),
        "a^-1ua=u^-1": s.mul(s.mul(s.inverse(a), u), a) == s.inverse(u),
        "ub=bu": s.mul(u, b) == s.mul(b, u),
        "ab=ba": s.mul(a, b) == s.mul(b, a),
    }
    center = G.center()
    derived = G.derived_subgroup()
    frattini = G.frattini()
    d8 = G.generated_subgroup([u, a])
    abelianization = G.quotient(derived)
    facts = {
        "order": G.order,
        "center_order": center.order,
        "center_cyclic": center.is_cyclic(),
        "derived_order": derived.order,
        "frattini_order": frattini.order,
        "<u,a>_order": d8.order,
        "<u,a>_abelian": d8.is_abelian(),
        "abelianization_order": abelianization.order,
        "abelianization_exponent": abelianization.exponent,
    }
    ok = all(relations.values()) and facts == {
        "order": 16, "center_order": 4, "center_cyclic": True,
        "derived_order": 2, "frattini_order": 2,
        "<u,a>_order": 8, "<u,a>_abelian": False,
        "abelianization_order": 8, "abelianization_exponent": 2,
    }
    return ok, {"relations": relations, "facts": facts}


@_verdict("eq13-14")
def p22_relations_check():
    """Close the five named generators in the P_{2,2} table and verify the
    order they generate, the squared generators, the centrality of ABC,
    and the nine commutator values."""
    s = pauli_spec(2, 1, 2)
    e = s.identity()
    minus_i = (2, (0, 0), (0, 0))
    g = p22_named_generators()
    G = pauli_group(s).generated_subgroup(g.values()).as_group(name="P(2,2)")

    def comm(x, y):
        return s.mul(s.mul(s.inverse(x), s.inverse(y)), s.mul(x, y))

    abc = s.mul(s.mul(g["A"], g["B"]), g["C"])
    relations = {f"{k}^2=I": s.mul(v, v) == e for k, v in g.items()}
    relations.update(
        {f"[ABC,{k}]=I": comm(abc, v) == e for k, v in g.items()})
    commutators = {
        "[A,B]": comm(g["A"], g["B"]),
        "[D,E]": comm(g["D"], g["E"]),
        "[B,C]": comm(g["B"], g["C"]),
        "[C,A]": comm(g["C"], g["A"]),
        "[C,E]": comm(g["C"], g["E"]),
        "[B,E]": comm(g["B"], g["E"]),
        "[A,D]": comm(g["A"], g["D"]),
        "[A,E]": comm(g["A"], g["E"]),
        "[C,D]": comm(g["C"], g["D"]),
    }
    expected = dict.fromkeys(("[A,B]", "[D,E]", "[B,C]", "[C,A]"), minus_i)
    expected.update(dict.fromkeys(
        ("[C,E]", "[B,E]", "[A,D]", "[A,E]", "[C,D]"), e))
    commutator_table = {k: commutators[k] == v for k, v in expected.items()}
    center = G.center()
    facts = {
        "order": G.order,
        "center_order": center.order,
        "center_cyclic": center.is_cyclic(),
        "ABC_central": G.centralizer([G.index[abc]]).order == G.order,
    }
    ok = (all(relations.values()) and all(commutator_table.values())
          and facts == {"order": 64, "center_order": 4,
                        "center_cyclic": True, "ABC_central": True})
    return ok, {"relations": relations,
                "commutator_table": commutator_table,
                "facts": facts}


@_verdict("eq6")
def heis_semidirect_report(spec):
    """Verify the two semidirect splittings G = A x| <y> = B x| <x> with
    A = <z, x>, B = <z, y> the maximal abelian normal subgroups, plus the
    central-product facts [A,B] = A cap B = <z> = Z(G).  n = 1 only."""
    if spec.n != 1:
        raise ValueError("the semidirect report is defined for n = 1")
    g = heis_group(spec)
    x = spec.element([1], [0])
    y = spec.element([0], [1])
    z = spec.element([0], [0], 1)
    a_sub = g.generated_subgroup([z, x])
    b_sub = g.generated_subgroup([z, y])
    x_sub = g.generated_subgroup([x])
    y_sub = g.generated_subgroup([y])
    z_sub = g.generated_subgroup([z])
    center = g.center()
    size = spec.carrier.size
    facts = {
        "A_order": a_sub.order,
        "B_order": b_sub.order,
        "A_abelian": a_sub.is_abelian(),
        "B_abelian": b_sub.is_abelian(),
        "A_normal": a_sub.is_normal(),
        "B_normal": b_sub.is_normal(),
        "A_maximal": a_sub.order * size == g.order,
        "AB_intersection_is_center": a_sub.intersect(b_sub) == center,
        "A_complement_y": (a_sub.intersect(y_sub).order == 1
                           and len(a_sub.product_set(y_sub)) == g.order),
        "B_complement_x": (b_sub.intersect(x_sub).order == 1
                           and len(b_sub.product_set(x_sub)) == g.order),
        "commutator_AB_is_center": a_sub.commutator_with(b_sub) == center,
        "z_generates_center": z_sub == center,
    }
    return all(facts.values()), {"group": spec.name, "facts": facts}


# ---------------------------------------------------------------------------
# classification and decomposition of Pauli groups
# ---------------------------------------------------------------------------

@_verdict("thm4.1")
def check_thm41():
    """P_{1,2} just nonabelian, not minimal; P_{1,p} both for odd p."""
    f12 = classify_special(pauli_group(pauli_spec(2, 1, 1)))
    f13 = classify_special(pauli_group(pauli_spec(3, 1, 1)))
    f15 = classify_special(pauli_group(pauli_spec(5, 1, 1)))
    ok = (f12.just_nonabelian and not f12.minimal_nonabelian
          and f13.just_nonabelian and f13.minimal_nonabelian
          and f15.just_nonabelian and f15.minimal_nonabelian)
    witness = {
        "P(1,2)": {"just_nonabelian": f12.just_nonabelian,
                   "minimal_nonabelian": f12.minimal_nonabelian},
        "P(1,3)": {"just_nonabelian": f13.just_nonabelian,
                   "minimal_nonabelian": f13.minimal_nonabelian},
        "P(1,5)": {"just_nonabelian": f15.just_nonabelian,
                   "minimal_nonabelian": f15.minimal_nonabelian},
    }
    return ok, witness


@_verdict("thm4.2")
def check_thm42():
    """Existence of the weak central product chain with P_{1,2} factors
    and central links, for n = 2 and n = 3."""
    witness = {}
    ok = True
    for n in (2, 3):
        rep = decompose_pauli_chain(n)
        good = (rep.classification == "weak_central"
                and all(f["isomorphism_type"] == "P(1,2)"
                        for f in rep.factors)
                and all(link["central"] for link in rep.links))
        witness[f"n={n}"] = {
            "classification": rep.classification,
            "factor_types": [f["isomorphism_type"] for f in rep.factors],
            "link_orders": rep.intersections,
            "links_central": all(link["central"] for link in rep.links),
        }
        ok = ok and good
    return ok, witness


@_verdict("thm4.2-links")
def check_thm42_links():
    """The registered link identity L_1 = [H_1, H_2] of order 4.  Distinct
    registers commute, so the commutator subgroup of the two order-16
    factors has order 1 and can never equal the order-4 link; the oracle
    records the counterexample."""
    rep = decompose_pauli_chain(2)
    comm_order = rep.commutators[0]
    inter_order = rep.intersections[0]
    witness = {
        "commutator_order": comm_order,
        "intersection_order": inter_order,
        "registered_link_order": 4,
        "note": "all commutators in P(n,2) lie in the order-2 subgroup "
                "generated by -I",
    }
    return comm_order == 4 and comm_order == inter_order, witness


@_verdict("cor4.4")
def check_cor44():
    """Registered: P_{n,2} just nonabelian iff n = 1; P_{n,p} (p odd)
    just nonabelian for all n.  The oracle finds P_{2,2} just nonabelian
    as well (every nontrivial normal subgroup contains -I, hence the
    derived subgroup), refuting the 'only if' direction."""
    f12 = classify_special(pauli_group(pauli_spec(2, 1, 1)))
    f22 = classify_special(pauli_group(pauli_spec(2, 1, 2)))
    f23 = classify_special(pauli_group(pauli_spec(3, 1, 2)))
    odd_ok = f23.just_nonabelian
    iff_ok = f12.just_nonabelian and not f22.just_nonabelian
    witness = {
        "P(1,2)_just_nonabelian": f12.just_nonabelian,
        "P(2,2)_just_nonabelian": f22.just_nonabelian,
        "P(2,3)_just_nonabelian": f23.just_nonabelian,
        "note": "every nontrivial normal subgroup of P(2,2) meets the "
                "cyclic center, hence contains -I and the derived "
                "subgroup; all proper quotients are abelian",
    }
    return iff_ok and odd_ok, witness


@_verdict("cor5.4")
def check_cor54():
    """Registered: P_{n,p^m} minimal nonabelian for all odd p, n, m.
    The oracle exhibits a proper nonabelian subgroup of P_{2,3}."""
    f13 = classify_special(pauli_group(pauli_spec(3, 1, 1)))
    f23 = classify_special(pauli_group(pauli_spec(3, 1, 2)))
    witness = {
        "P(1,3)_minimal_nonabelian": f13.minimal_nonabelian,
        "P(2,3)_minimal_nonabelian": f23.minimal_nonabelian,
        # minimal_nonabelian decides by its one method, a generating-pair search
        "P(2,3)_mode": "pair_search",
        "P(2,3)_evidence": f23.evidence.get("minimal_nonabelian", {}),
    }
    return f13.minimal_nonabelian and f23.minimal_nonabelian, witness


# ---------------------------------------------------------------------------
# Heisenberg comparison and the lifted projection
# ---------------------------------------------------------------------------

@_verdict("cor4.3", inconsistent=lambda p, m, n: m > 1)
def corollary43_check(p: int, m: int, n: int):
    """Compare P_{n,p^m} against both Heisenberg variants: full center
    over Z/p^m and trace-reduced center over GF(p^m).  For m = 1 the two
    coincide and a match confirms the claim; for m > 1 the registered
    statement is order-inconsistent (its order p^(2nm+1) contradicts the
    full variant's p^(m(2n+1))) and the verdict records which variant
    the oracle supports."""
    if p == 2:
        raise ValueError("the comparison is stated for odd p")
    order = p ** (2 * n * m + 1)
    if order > ISO_ORDER_CAP:
        return "out_of_cap", {"required_order": order}
    pg = pauli_group(pauli_spec(p, m, n))
    reduced_spec = heis_spec(field_make(p, m), n, reduced=True)
    full_spec = heis_spec(Carrier(p, m, False), n)
    witness: dict = {
        "pauli_order": pg.order,
        "reduced_variant_order": reduced_spec.order,
        "full_variant_order": full_spec.order,
    }
    reduced_ok = False
    if reduced_spec.order == pg.order:
        reduced_ok, _ = isomorphic(pg, heis_group(reduced_spec))
    witness["reduced_variant_isomorphic"] = reduced_ok
    full_ok = False
    if full_spec.order == pg.order:
        full_ok, _ = isomorphic(pg, heis_group(full_spec))
    witness["full_variant_isomorphic"] = full_ok
    if m > 1:
        witness["supported_reading"] = "reduced" if reduced_ok else "none"
    return reduced_ok, witness


def _p12_chain_search(g: FiniteGroup) -> list | None:
    """The shortest chain of normal subgroups isomorphic to P_{1,2} that
    ``weak_central_chain`` reads as a weak central product of g, or None.
    A factor that does not enlarge the product can be dropped, so a
    shortest chain has at most 1 + log2(|g| / 16) factors."""
    p12 = pauli_group(pauli_spec(2, 1, 1))
    candidates = [h for h in g.subgroups_all()
                  if h.order == p12.order and h.is_normal()
                  and isomorphic(h.as_group(), p12)[0]]
    for length in range(1, (g.order // p12.order).bit_length() + 1):
        for chain in itertools.combinations(candidates, length):
            if weak_central_chain(g, chain)[0] != "none":
                return list(chain)
    return None


@_verdict(lambda p, m, n: "cor5.2" if p != 2 else "cor5.3")
def corollary52_53_check(p: int, m: int, n: int):
    """Kernel/quotient structure of the projection: verify first
    isomorphism theorem facts, then compare the image against the
    Heisenberg reading (odd p) or search for a chain of P_{1,2} factors
    (p = 2)."""
    spec = lifted_spec(p, m, n)
    if spec.order > ISO_ORDER_CAP:
        return "out_of_cap", {"required_order": spec.order}
    g = lifted_group(spec)
    kernel = g.generated_subgroup(pi_kernel(spec))
    central = kernel <= g.center()
    quotient = g.quotient(kernel)
    image = pi_image_group(spec)
    iso_first, _ = isomorphic(quotient, image)
    witness = {
        "lifted_order": g.order,
        "kernel_order": kernel.order,
        "kernel_central": central,
        "image_order": image.order,
        "quotient_isomorphic_to_image": iso_first,
    }
    ok = central and iso_first and kernel.order * image.order == g.order
    if p != 2:
        iso_pauli, _ = isomorphic(image, pauli_group(pauli_spec(p, m, n)))
        witness["image_isomorphic_to_pauli"] = iso_pauli
        heis = corollary43_check(p, m, n)
        witness["heisenberg_comparison"] = heis.to_json()
        # the comparison's status stands unless the projection facts fail
        return ok and iso_pauli and _worst_status([heis.status]), witness
    chain = _p12_chain_search(image)
    witness["chain_found"] = chain is not None
    if chain is not None:
        witness["chain_factor_orders"] = [h.order for h in chain]
        witness["chain_length"] = len(chain)
    return ok and chain is not None, witness


@_verdict("cor4.3")
def check_cor43():
    """Aggregate of the Heisenberg comparisons at the desk instances."""
    sub = {f"({p},{m},{n})": corollary43_check(p, m, n)
           for (p, m, n) in ((3, 1, 1), (3, 1, 2), (3, 2, 1))}
    return (_worst_status(v.status for v in sub.values()),
            {k: v.to_json() for k, v in sub.items()})


def check_cor52() -> VerdictReport:
    return corollary52_53_check(3, 2, 1)


@_verdict("cor5.3")
def check_cor53():
    sub = {"(2,1,2)": corollary52_53_check(2, 1, 2),
           "(2,2,1)": corollary52_53_check(2, 2, 1)}
    return (_worst_status(v.status for v in sub.values()),
            {k: v.to_json() for k, v in sub.items()})


# ---------------------------------------------------------------------------
# abelian subgroup bounds
# ---------------------------------------------------------------------------

def constructive_abelian_subgroups(n: int) -> list[tuple]:
    """Distinct abelian subgroups of P_{n,2} exhibited from the register
    factors H_j (each holding a full P_{1,2} sublattice), without
    enumerating the whole lattice.  Returns sorted member-index tuples."""
    spec = pauli_spec(2, 1, n)
    g = pauli_group(spec)
    found = set()
    for h in pauli_chain_subgroups(g, spec):
        hg = h.as_group()
        for sub in hg.abelian_subgroups()[1:]:
            found.add(tuple(sorted(g.index[hg.elements[i]]
                                   for i in sub.members)))
    return sorted(found)


@_verdict("cor5.6")
def bounds_check(n: int):
    """Adjudicate 2(c_ab(P_{n-1,2}) + 1) >= c_ab(P_{n,2}) >= 10 n.

    For n <= 2 both counts are exact.  For n = 3 the lower bound is
    checked constructively, without enumerating the order-256 lattice."""
    if n < 1 or n > 3:
        raise ValueError("bounds implemented for 1 <= n <= 3")
    witness: dict = {"n": n, "lower_bound": 10 * n}
    exact = n <= 2
    if exact:
        c_ab = abelian_census(pauli_group(pauli_spec(2, 1, n))).c_ab
        witness["c_ab_exact"] = c_ab
        witness["mode"] = "exhaustive"
    else:
        c_ab = len(constructive_abelian_subgroups(n))
        witness["c_ab_constructive_lower"] = c_ab
        witness["mode"] = "constructive"
    lower_ok = c_ab >= 10 * n
    witness["lower_bound_holds"] = lower_ok

    upper_ok = None
    if n >= 2 and exact:
        prev = pauli_group(pauli_spec(2, 1, n - 1))
        c_prev = abelian_census(prev).c_ab
        bound = 2 * (c_prev + 1)
        upper_ok = c_ab <= bound
        witness["c_ab_previous"] = c_prev
        witness["upper_bound"] = bound
        witness["upper_bound_holds"] = upper_ok
    return lower_ok and upper_ok is not False, witness


@_verdict("cor5.6")
def check_cor56():
    """Both registered bound inequalities at n = 1, 2 (exact) and the lower
    bound at n = 3 (constructive)."""
    sub = {f"n={n}": bounds_check(n) for n in (1, 2, 3)}
    return (_worst_status(v.status for v in sub.values()),
            {k: v.to_json() for k, v in sub.items()})


# ---------------------------------------------------------------------------
# small reference groups
# ---------------------------------------------------------------------------

@_verdict("eq19")
def check_eq19():
    """sigma(4) + tau(4) = 10 = |L(D8)|."""
    s, t = sigma_tau(4)
    lattice_size = len(dihedral8().subgroups_all())
    ok = s == 7 and t == 3 and s + t == lattice_size == 10
    return ok, {"sigma(4)": s, "tau(4)": t, "lattice_size": lattice_size}


@_verdict("remark3.9", inconsistent=True)
def check_remark39():
    """The E-label of P_{1,3}.  The registered text calls the group E_2
    while also asserting exponent p; the exhaustive exponent computation
    and the isomorphism oracle both select E_1 (the exponent-p group), so
    the registered label contradicts the registered exponent."""
    pg = pauli_group(pauli_spec(3, 1, 1))
    e1 = extraspecial_e1(3)
    e2 = extraspecial_e2(3)
    h = heis_group(heis_spec(field_make(3, 1)))
    iso_e1, _ = isomorphic(pg, e1)
    iso_e2, _ = isomorphic(pg, e2)
    iso_h, _ = isomorphic(pg, h)
    witness = {
        "exponent_P(1,3)": pg.exponent,
        "exponent_E1": e1.exponent,
        "exponent_E2": e2.exponent,
        "isomorphic_to_E1": iso_e1,
        "isomorphic_to_E2": iso_e2,
        "isomorphic_to_H(GF(3))": iso_h,
    }
    return pg.exponent == 3 and iso_e1 and not iso_e2 and iso_h, witness


@_verdict("remark3.2", inconsistent=True)
def check_remark32():
    """Uniqueness phrasing for nonabelian groups of order 27.  The oracle
    verifies the checkable part: E_1 and E_2 are nonisomorphic nonabelian
    groups of order 27 with exponents 3 and 9, so uniqueness holds only
    with the exponent qualifier attached."""
    e1 = extraspecial_e1(3)
    e2 = extraspecial_e2(3)
    iso, _ = isomorphic(e1, e2)
    witness = {
        "E1_order": e1.order, "E2_order": e2.order,
        "E1_exponent": e1.exponent, "E2_exponent": e2.exponent,
        "E1_isomorphic_E2": iso,
        "reading": "unique among exponent-3 groups (checkable instances); "
                   "not unique among nonabelian order-27 groups",
    }
    return not iso and e1.exponent == 3 and e2.exponent == 9, witness


def check_eq6() -> VerdictReport:
    return heis_semidirect_report(heis_spec(field_make(3, 1)))


CHECKS = {
    "lemma3.1": lemma31_presentation_check,
    "eq13-14": p22_relations_check,
    "eq6": check_eq6,
    "thm4.1": check_thm41,
    "thm4.2": check_thm42,
    "thm4.2-links": check_thm42_links,
    "cor4.3": check_cor43,
    "cor4.4": check_cor44,
    "cor5.2": check_cor52,
    "cor5.3": check_cor53,
    "cor5.4": check_cor54,
    "cor5.6": check_cor56,
    "eq19": check_eq19,
    "remark3.2": check_remark32,
    "remark3.9": check_remark39,
}

# statuses the suite treats as oracle-consistent results (refutations
# included: they are valid outcomes, not tool failures)
EXPECTED = {
    "lemma3.1": "confirmed",
    "eq13-14": "confirmed",
    "eq6": "confirmed",
    "thm4.1": "confirmed",
    "thm4.2": "confirmed",
    "thm4.2-links": "refuted_at_desk_scale",
    "cor4.3": "inconsistent_in_paper",
    "cor4.4": "refuted_at_desk_scale",
    "cor5.2": "inconsistent_in_paper",
    "cor5.3": "confirmed",
    "cor5.4": "refuted_at_desk_scale",
    "cor5.6": "refuted_at_desk_scale",
    "eq19": "confirmed",
    "remark3.2": "inconsistent_in_paper",
    "remark3.9": "inconsistent_in_paper",
}


def run_suite(scope: str = "all") -> list[VerdictReport]:
    if scope == "all":
        return [CHECKS[claim]() for claim in sorted(CHECKS)]
    if scope not in CHECKS:
        raise KeyError(scope)
    return [CHECKS[scope]()]
