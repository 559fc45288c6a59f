"""Acceptance suite: nine timed criteria, one printed verdict line each.

Every check is exact integer arithmetic end to end.  Refuted or
inconsistent registered claims are expected outputs here, not failures:
each such verdict must carry an explicit witness.
"""

import itertools
import time

from matrix_oracle import pauli_matrix_oracle, pi_is_homomorphism
from paulidecomp.algebra import (D8, field_make, heis_spec, lifted_spec,
                                 pauli_spec)
from paulidecomp.census import abelian_census, hasse
from paulidecomp.claims import (bounds_check, check_cor43, check_cor54,
                                check_eq19, check_remark39, check_thm42_links,
                                corollary43_check, corollary52_53_check,
                                lemma31_presentation_check,
                                p22_relations_check)
from paulidecomp.groupcore import (SubgroupHandle, abelian_invariants,
                                   extension_group, isomorphic)
from paulidecomp.lifted import lifted_group, pi_kernel
from paulidecomp.pauli import pauli_group
from paulidecomp.products import decompose_pauli_chain, pauli_chain_subgroups


def timed(label, limit_s):
    class Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.monotonic() - self.t0
            verdict = "PASS" if exc_type is None and dt < limit_s else "FAIL"
            print(f"[acceptance] {label}: {verdict} ({dt:.2f}s, "
                  f"limit {limit_s}s)")
            assert dt < limit_s, f"{label} exceeded {limit_s}s ({dt:.2f}s)"
            return False
    return Timer()


def test_criterion_1_lemma31_suite():
    with timed("1 single-qubit presentation suite", 1.0):
        rep = lemma31_presentation_check()
        assert rep.status == "confirmed"
        facts = rep.witness["facts"]
        g = pauli_group(pauli_spec(2, 1, 1))
        assert facts["order"] == 16
        assert facts["center_order"] == 4 and facts["center_cyclic"]
        assert g.exponent == 4  # no order-8 element
        assert facts["frattini_order"] == 2 == facts["derived_order"]
        assert g.frattini().members == g.derived_subgroup().members
        assert abelian_invariants(g.quotient(g.center())) == (2, 2)
        assert all(rep.witness["relations"].values())


def test_criterion_2_two_qubit_relations():
    with timed("2 two-qubit relation suite", 1.0):
        rep = p22_relations_check()
        assert rep.status == "confirmed"
        facts = rep.witness["facts"]
        assert facts["order"] == 64
        assert facts["center_order"] == 4 and facts["center_cyclic"]
        assert all(rep.witness["relations"].values())


def test_criterion_3_chain_decomposition():
    with timed("3 register chain for n = 2, 3", 30.0):
        spec = pauli_spec(2, 1, 2)
        g = pauli_group(spec)
        h1, h2 = pauli_chain_subgroups(g, spec)
        for h in (h1, h2):
            ok, _ = isomorphic(h.as_group(), pauli_group(pauli_spec(2, 1, 1)))
            assert ok
        assert len(h1.product_set(h2)) == g.order
        # the registered link <U> = Z4 is realized as the intersection:
        # commutators in the qubit group land in <-I>, so [H1,H2] cannot
        # have order 4; the claim is adjudicated as refuted while the
        # intersection reading of the chain verifies
        link = h1.intersect(h2)
        assert link.order == 4
        assert link.is_cyclic()
        assert set(link.members) == set(g.center().members)
        assert h1.commutator_with(h2).order == 1
        rep = check_thm42_links()
        assert rep.status == "refuted_at_desk_scale"
        assert rep.witness["commutator_order"] == 1
        chain3 = decompose_pauli_chain(3)
        assert chain3.classification == "weak_central"
        assert chain3.links[1]["order"] == 4


def test_criterion_4_heisenberg_isomorphisms():
    with timed("4 Heisenberg comparisons up to order 243", 60.0):
        rep = corollary43_check(3, 1, 1)
        assert rep.status == "confirmed"
        assert rep.witness["reduced_variant_isomorphic"]
        # order-243 case: P(1,9) against the trace-reduced variant, with
        # an explicit isomorphism witness from the oracle
        pg = pauli_group(pauli_spec(3, 2, 1))
        from paulidecomp.heisenberg import heis_group
        hg = heis_group(heis_spec(field_make(3, 2), reduced=True))
        ok, phi = isomorphic(pg, hg)
        assert ok and phi is not None
        rep = check_cor43()
        assert rep.status == "inconsistent_in_paper"


def test_criterion_5_lifted_projections():
    with timed("5 lifted groups and projection chains", 60.0):
        spec = lifted_spec(3, 2, 1)
        g = lifted_group(spec)
        assert g.order == 729
        assert len(pi_kernel(spec)) == 3
        members = tuple(sorted(g.index[k] for k in pi_kernel(spec)))
        assert g.closure_indices(members) == members
        kernel = SubgroupHandle(g, members)
        q = g.quotient(kernel)
        ok, _ = isomorphic(q, pauli_group(pauli_spec(3, 2, 1)))
        assert ok
        rep = corollary52_53_check(2, 1, 2)
        assert rep.status == "confirmed"
        assert rep.witness["chain_length"] == 2
        assert rep.witness["chain_factor_orders"] == [16, 16]


def test_criterion_6_census():
    with timed("6 abelian census and lattice counts", 5.0):
        d8 = abelian_census(extension_group(D8))
        assert d8.c_ab == 8
        lat = hasse(extension_group(D8))
        sigma4, tau4 = 1 + 2 + 4, 3  # divisor sum and divisor count of 4
        assert len(lat.nodes) == 10 == sigma4 + tau4
        rep = check_eq19()
        assert rep.status == "confirmed"
        p12 = abelian_census(pauli_group(pauli_spec(2, 1, 1)))
        assert p12.c_ab == 17
        assert p12.by_order == {"2": 7, "4": 7, "8": 3}
        # breakdown 1 + 6 + 4 + 3 + 3: one normal and six nonnormal of
        # order 2, four cyclic and three Klein subgroups of order 4,
        # three of order 8
        assert p12.by_order_normality["2:normal"] == 1
        assert p12.by_order_normality["2:nonnormal"] == 6
        g = pauli_group(pauli_spec(2, 1, 1))
        quads = [h for h in g.subgroups_all()
                 if h.order == 4 and h.is_abelian()]
        assert sum(1 for h in quads if h.is_cyclic()) == 4
        assert sum(1 for h in quads if not h.is_cyclic()) == 3
        assert p12.by_order_normality["8:normal"] == 3


def test_criterion_7_bounds():
    with timed("7 subgroup count bounds", 300.0):
        for n in (1, 2, 3):
            rep = bounds_check(n)
            assert rep.witness["lower_bound_holds"]
        exact = bounds_check(2)
        assert exact.witness["c_ab_exact"] == 212
        # upper bound is a claim under test: adjudicated with a status
        assert exact.witness["upper_bound"] == 36
        assert exact.witness["upper_bound_holds"] is False
        assert exact.status == "refuted_at_desk_scale"


def test_criterion_8_property_suites():
    with timed("8 property suites", 120.0):
        # field axioms exhaustive for q <= 25
        for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                     (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1),
                     (5, 2)):
            f = field_make(p, m)
            add, mul = f.add_table, f.mul_table
            els = range(f.size)
            one = f.scalar(1)
            for x, y, z in itertools.product(els, repeat=3):
                assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
                assert add[add[x][y]][z] == add[x][add[y][z]]
                assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
            for x in els:
                if x:
                    assert one in mul[x]
        # trace kernel sizes
        for p, m in ((2, 2), (3, 2)):
            f = field_make(p, m)
            assert sum(1 for x in range(f.size) if f.trace(x) == 0) == \
                p ** (m - 1)
        # cocycle identity exhaustive at n = 1 (associativity of mul)
        for p, m in ((2, 1), (3, 1)):
            spec = pauli_spec(p, m, 1)
            els = list(spec.elements())
            for a, b, c in itertools.product(els, repeat=3):
                assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        # phase-space vs cyclotomic matrix oracle, all pairs
        for p in (2, 3):
            spec = pauli_spec(p, 1, 1)
            els = list(spec.elements())
            mats = {g: pauli_matrix_oracle(spec, g) for g in els}
            for g, h in itertools.product(els, repeat=2):
                assert mats[spec.mul(g, h)] == mats[g] @ mats[h]
        # projection homomorphism exhaustive at q = 9, n = 1
        assert pi_is_homomorphism(lifted_spec(3, 2, 1)) is True


def test_criterion_9_inconsistency_reports():
    with timed("9 registered-claim inconsistency reports", 600.0):
        rep = check_remark39()
        assert rep.status == "inconsistent_in_paper"
        assert rep.witness["exponent_P(1,3)"] == 3
        assert rep.witness["isomorphic_to_E1"]
        assert not rep.witness["isomorphic_to_E2"]
        rep = check_cor54()
        assert rep.status == "refuted_at_desk_scale"
        assert rep.witness
        rep = bounds_check(2)
        assert rep.status == "refuted_at_desk_scale"
        assert rep.witness["upper_bound_holds"] is False
