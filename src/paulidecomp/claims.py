"""The registered claim suite: one verdict function per claim id, plus an
aggregator.  Every claim is decided by the brute-force oracle; statuses
follow the convention in ``reports``.
"""

from __future__ import annotations

import time

from .algebra import field_make, sigma_tau
from .census import bounds_check
from .groupcore import isomorphic
from .heisenberg import (dihedral8, extraspecial_e1, extraspecial_e2,
                         heis_group, heis_semidirect_report, heis_spec)
from .lifted import corollary52_53_check
from .pauli import (lemma31_presentation_check, p22_relations_check,
                    pauli_group, pauli_spec)
from .products import (classify_special, corollary43_check,
                       decompose_pauli_chain)
from .reports import CLAIMS, VerdictReport


def check_thm41() -> VerdictReport:
    """P_{1,2} just nonabelian, not minimal; P_{1,p} both for odd p."""
    t0 = time.perf_counter()
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
    return VerdictReport(
        claim="thm4.1", locator=CLAIMS["thm4.1"],
        status="confirmed" if ok else "refuted_at_desk_scale",
        witness=witness, wall_time_s=time.perf_counter() - t0)


def check_thm42() -> VerdictReport:
    """Existence of the weak central product chain with P_{1,2} factors
    and central links, for n = 2 and n = 3."""
    t0 = time.perf_counter()
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
    return VerdictReport(
        claim="thm4.2", locator=CLAIMS["thm4.2"],
        status="confirmed" if ok else "refuted_at_desk_scale",
        witness=witness, wall_time_s=time.perf_counter() - t0)


def check_thm42_links() -> VerdictReport:
    """The registered link identity L_1 = [H_1, H_2] of order 4.  In the
    qubit phase-space model every commutator is a power of -I, so the
    commutator subgroup of two normal order-16 factors has order at most
    2 and can never equal the order-4 link; the oracle records the
    counterexample."""
    t0 = time.perf_counter()
    rep = decompose_pauli_chain(2)
    comm_order = rep.commutators[0]
    inter_order = rep.intersections[0]
    ok = comm_order == 4 and comm_order == inter_order
    witness = {
        "commutator_order": comm_order,
        "intersection_order": inter_order,
        "registered_link_order": 4,
        "note": "all commutators in P(n,2) lie in the order-2 subgroup "
                "generated by -I",
    }
    return VerdictReport(
        claim="thm4.2-links", locator=CLAIMS["thm4.2-links"],
        status="confirmed" if ok else "refuted_at_desk_scale",
        witness=witness, wall_time_s=time.perf_counter() - t0)


def check_cor43() -> VerdictReport:
    """Aggregate of the Heisenberg comparisons at the desk instances."""
    t0 = time.perf_counter()
    instances = ((3, 1, 1), (3, 1, 2), (3, 2, 1))
    sub = {f"({p},{m},{n})": corollary43_check(p, m, n)
           for (p, m, n) in instances}
    statuses = {v.status for v in sub.values()}
    if statuses <= {"confirmed"}:
        status = "confirmed"
    elif statuses <= {"confirmed", "inconsistent_in_paper"}:
        status = "inconsistent_in_paper"
    else:
        status = "refuted_at_desk_scale"
    return VerdictReport(
        claim="cor4.3", locator=CLAIMS["cor4.3"], status=status,
        witness={k: v.to_json() for k, v in sub.items()},
        wall_time_s=time.perf_counter() - t0)


def check_cor44() -> VerdictReport:
    """Registered: P_{n,2} just nonabelian iff n = 1; P_{n,p} (p odd)
    just nonabelian for all n.  The oracle finds P_{2,2} just nonabelian
    as well (every nontrivial normal subgroup contains -I, hence the
    derived subgroup), refuting the 'only if' direction."""
    t0 = time.perf_counter()
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
    ok = iff_ok and odd_ok
    return VerdictReport(
        claim="cor4.4", locator=CLAIMS["cor4.4"],
        status="confirmed" if ok else "refuted_at_desk_scale",
        witness=witness, wall_time_s=time.perf_counter() - t0)


def check_cor54() -> VerdictReport:
    """Registered: P_{n,p^m} minimal nonabelian for all odd p, n, m.
    The oracle exhibits a proper nonabelian subgroup of P_{2,3}."""
    t0 = time.perf_counter()
    f13 = classify_special(pauli_group(pauli_spec(3, 1, 1)))
    f23 = classify_special(pauli_group(pauli_spec(3, 1, 2)))
    witness = {
        "P(1,3)_minimal_nonabelian": f13.minimal_nonabelian,
        "P(2,3)_minimal_nonabelian": f23.minimal_nonabelian,
        # minimal_nonabelian decides by its one method, a generating-pair search
        "P(2,3)_mode": "pair_search",
        "P(2,3)_evidence": f23.evidence.get("minimal_nonabelian", {}),
    }
    ok = f13.minimal_nonabelian and f23.minimal_nonabelian
    return VerdictReport(
        claim="cor5.4", locator=CLAIMS["cor5.4"],
        status="confirmed" if ok else "refuted_at_desk_scale",
        witness=witness, wall_time_s=time.perf_counter() - t0)


def check_cor56() -> VerdictReport:
    """Both registered bound inequalities at n = 1, 2 (exact) and the lower
    bound at n = 3 (constructive)."""
    t0 = time.perf_counter()
    sub = {f"n={n}": bounds_check(n) for n in (1, 2, 3)}
    statuses = {v.status for v in sub.values()}
    status = "confirmed" if statuses <= {"confirmed"} else \
        "refuted_at_desk_scale"
    return VerdictReport(
        claim="cor5.6", locator=CLAIMS["cor5.6"], status=status,
        witness={k: v.to_json() for k, v in sub.items()},
        wall_time_s=time.perf_counter() - t0)


def check_eq19() -> VerdictReport:
    """sigma(4) + tau(4) = 10 = |L(D8)|."""
    t0 = time.perf_counter()
    s, t = sigma_tau(4)
    lattice_size = len(dihedral8().subgroups_all())
    ok = s == 7 and t == 3 and s + t == lattice_size == 10
    return VerdictReport(
        claim="eq19", locator=CLAIMS["eq19"],
        status="confirmed" if ok else "refuted_at_desk_scale",
        witness={"sigma(4)": s, "tau(4)": t, "lattice_size": lattice_size},
        wall_time_s=time.perf_counter() - t0)


def check_remark39() -> VerdictReport:
    """The E-label of P_{1,3}.  The registered text calls the group E_2
    while also asserting exponent p; the exhaustive exponent computation
    and the isomorphism oracle both select E_1 (the exponent-p group), so
    the registered label contradicts the registered exponent."""
    t0 = time.perf_counter()
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
    consistent = (pg.exponent == 3 and iso_e1 and not iso_e2 and iso_h)
    status = "inconsistent_in_paper" if consistent else "refuted_at_desk_scale"
    return VerdictReport(claim="remark3.9", locator=CLAIMS["remark3.9"],
                         status=status, witness=witness,
                         wall_time_s=time.perf_counter() - t0)


def check_remark32() -> VerdictReport:
    """Uniqueness phrasing for nonabelian groups of order 27.  The oracle
    verifies the checkable part: E_1 and E_2 are nonisomorphic nonabelian
    groups of order 27 with exponents 3 and 9, so uniqueness holds only
    with the exponent qualifier attached."""
    t0 = time.perf_counter()
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
    ok = not iso and e1.exponent == 3 and e2.exponent == 9
    return VerdictReport(
        claim="remark3.2", locator=CLAIMS["remark3.2"],
        status="inconsistent_in_paper" if ok else "refuted_at_desk_scale",
        witness=witness, wall_time_s=time.perf_counter() - t0)


def check_eq6() -> VerdictReport:
    return heis_semidirect_report(heis_spec(field_make(3, 1)))


def check_cor52() -> VerdictReport:
    return corollary52_53_check(3, 2, 1)


def check_cor53() -> VerdictReport:
    t0 = time.perf_counter()
    sub = {"(2,1,2)": corollary52_53_check(2, 1, 2),
           "(2,2,1)": corollary52_53_check(2, 2, 1)}
    statuses = {v.status for v in sub.values()}
    status = "confirmed" if statuses <= {"confirmed"} else \
        "refuted_at_desk_scale"
    return VerdictReport(
        claim="cor5.3", locator=CLAIMS["cor5.3"], status=status,
        witness={k: v.to_json() for k, v in sub.items()},
        wall_time_s=time.perf_counter() - t0)


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
