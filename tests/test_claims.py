import itertools
import json
from collections import Counter

import pytest

from paulidecomp import claims, groupcore, lifted, products
from paulidecomp.algebra import field_make, heis_spec, lifted_spec, pauli_spec
from paulidecomp.claims import (CHECKS, EXPECTED, _p12_candidates,
                                _p12_chain_search, _worst_status,
                                corollary43_check, corollary52_53_check,
                                run_suite)
from paulidecomp.groupcore import ISO_ORDER_CAP, CapError, isomorphic
from paulidecomp.lifted import pi_image_group, pi_map
from paulidecomp.pauli import pauli_group
from paulidecomp.products import weak_central_chain
from paulidecomp.reports import STATUSES, dump_json


def test_registry_consistency():
    # CHECKS and EXPECTED are read from the one table claims.CLAIMS
    assert all(v in STATUSES for v in EXPECTED.values())


def test_single_scope():
    reports = run_suite("eq19")
    assert len(reports) == 1
    assert reports[0].claim == "eq19"
    assert reports[0].status == "confirmed"


def test_report_json_shape():
    rep = run_suite("eq19")[0]
    d = json.loads(dump_json(rep))
    for key in ("claim", "locator", "status", "witness", "wall_time_s"):
        assert key in d


def _old_cor43_rule(statuses):
    """The aggregate rule cor4.3 used before the one fold."""
    if set(statuses) <= {"confirmed"}:
        return "confirmed"
    if set(statuses) <= {"confirmed", "inconsistent_in_paper"}:
        return "inconsistent_in_paper"
    return "refuted_at_desk_scale"


def _old_cor53_rule(statuses):
    """The aggregate rule cor5.3 and cor5.6 used before the one fold."""
    return ("confirmed" if set(statuses) <= {"confirmed"}
            else "refuted_at_desk_scale")


# out_of_cap, once a fourth status, is no status now: a too-large
# instance raises CapError, and the fold refuses any multiset holding it.
# The statuses are drawn in a fixed order, so that the test ids do not
# depend on the order of STATUSES.
DRAWN = ("confirmed", "refuted_at_desk_scale", "inconsistent_in_paper")
MULTISETS = [c for k in (1, 2, 3)
             for c in itertools.combinations_with_replacement(
                 DRAWN + ("out_of_cap",), k)]


def test_statuses_are_listed_by_severity():
    assert sorted(DRAWN) == sorted(STATUSES)
    assert [_worst_status(STATUSES[:k]) for k in (1, 2, 3)] == list(STATUSES)


@pytest.mark.parametrize("statuses", MULTISETS, ids="+".join)
def test_worst_status_matches_old_folds(statuses):
    if "out_of_cap" in statuses:
        with pytest.raises(KeyError):
            _worst_status(statuses)
        return
    folded = _worst_status(statuses)
    assert folded == _old_cor43_rule(statuses)
    if "inconsistent_in_paper" not in statuses:
        assert folded == _old_cor53_rule(statuses)


def test_no_sharing_outside_a_run():
    s = pauli_spec(2, 1, 1)
    assert pauli_group(s) is not pauli_group(s)


def test_run_builds_each_pauli_group_once(built):
    run_suite("all")
    pauli = Counter(spec for spec, _ in built["groups"]
                    if spec.name.startswith("P("))
    assert len(pauli) == 7
    assert set(pauli.values()) == {1}
    # 173 before the run shared its Pauli groups and comparisons, 69
    # before it shared every spec's group and E2(3), 64 while the
    # isomorphism pre-filter read G/G' and the odd-p image had its own,
    # 37 while Hred(GF(3)^n), H((Z/3)^n) and H(GF(3)) were distinct specs
    assert built["tables"] <= 34


def _without_wall_time(value):
    if isinstance(value, dict):
        return {k: _without_wall_time(v) for k, v in value.items()
                if k != "wall_time_s"}
    if isinstance(value, list):
        return [_without_wall_time(v) for v in value]
    return value


def test_each_claim_alone_matches_the_full_run(monkeypatch):
    together = {r.claim: _without_wall_time(json.loads(dump_json(r)))
                for r in run_suite("all")}
    comparisons = []
    check = claims.corollary43_check
    monkeypatch.setattr(claims, "corollary43_check",
                        lambda *args: comparisons.append(args) or check(*args))
    for claim in sorted(CHECKS):
        comparisons.clear()
        alone, = run_suite(claim)
        assert _without_wall_time(json.loads(dump_json(alone))) \
            == together[claim]
        if claim == "cor5.2":
            # with no cor4.3 before it in the run, cor5.2 makes its own
            assert comparisons == [(3, 2, 1)]
    assert together["cor5.2"]["witness"]["heisenberg_comparison"] == \
        together["cor4.3"]["witness"]["(3,2,1)"]


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1)])
def test_p12_prefilter_keeps_exactly_the_isomorphic_factors(m, n):
    image = pi_image_group(lifted_spec(2, m, n))
    p12 = pauli_group(pauli_spec(2, 1, 1))
    isomorphic_normal = [h for h in image.subgroups_all()
                         if h.order == 16 and h.is_normal()
                         and isomorphic(h.as_group(), p12)[0]]
    assert len(isomorphic_normal) == 6
    assert _p12_candidates(image) == isomorphic_normal


def _eager_chain_search(g, candidates):
    """The chain search that tests every candidate against P(1,2) first,
    then the chains of isomorphic ones in ``combinations`` order."""
    p12 = pauli_group(pauli_spec(2, 1, 1))
    isomorphic_ones = [h for h in candidates
                       if isomorphic(h.as_group(), p12)[0]]
    for length in range(1, (g.order // p12.order).bit_length() + 1):
        for chain in itertools.combinations(isomorphic_ones, length):
            if weak_central_chain(g, chain)[0] != "none":
                return [h.members for h in chain]
    return None


def _counted_isomorphic(monkeypatch) -> list:
    calls = []

    def counted(g, h):
        calls.append(g.order)
        return isomorphic(g, h)

    monkeypatch.setattr(claims, "isomorphic", counted)
    return calls


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1)])
def test_chain_search_returns_the_eager_chain(m, n, monkeypatch):
    image = pi_image_group(lifted_spec(2, m, n))
    eager = _eager_chain_search(image, _p12_candidates(image))
    calls = _counted_isomorphic(monkeypatch)
    chain = _p12_chain_search(image)
    assert [h.members for h in chain] == eager
    # the two members of the first chain the fold accepts
    assert len(calls) <= 2


def _d8xz2_factors(image) -> list:
    """The normal subgroups of order 16 that the element-order prefilter
    drops: each is D8 x Z2 (11 involutions), not P(1,2) (7)."""
    kept = _p12_candidates(image)
    return [h for h in image.subgroups_all()
            if h.order == 16 and h.is_normal() and h not in kept]


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1)])
@pytest.mark.parametrize("order", ["reversed", "d8xz2_first"])
def test_chain_search_skips_candidates_not_isomorphic_to_p12(
        m, n, order, monkeypatch):
    # every pair of the real candidates, and every pair with a D8 x Z2
    # factor, is a weak central product of the image: only the
    # isomorphism test tells the D8 x Z2 chains apart
    image = pi_image_group(lifted_spec(2, m, n))
    kept = _p12_candidates(image)
    d8xz2 = _d8xz2_factors(image)
    assert len(d8xz2) == 9
    assert weak_central_chain(image, [d8xz2[0], kept[0]])[0] != "none"
    candidates = (kept[::-1] if order == "reversed"
                  else [d8xz2[0], *kept, *d8xz2[1:3]])
    eager = _eager_chain_search(image, candidates)
    monkeypatch.setattr(claims, "_p12_candidates", lambda g: candidates)
    calls = _counted_isomorphic(monkeypatch)
    chain = _p12_chain_search(image)
    assert [h.members for h in chain] == eager
    assert set(eager).isdisjoint(h.members for h in d8xz2)
    # the D8 x Z2 factor is searched once however many chains hold it
    assert len(calls) <= (2 if order == "reversed" else 3)


def test_run_classifies_each_pauli_group_once(monkeypatch):
    # computations, not calls: each classification runs just_nonabelian
    # once and each chain decomposition pauli_chain_subgroups once, both
    # looked up by name in ``products``
    classified, chains = Counter(), Counter()
    jna, subgroups = products.just_nonabelian, products.pauli_chain_subgroups
    monkeypatch.setattr(products, "just_nonabelian",
                        lambda g: classified.update([g.name]) or jna(g))
    monkeypatch.setattr(
        products, "pauli_chain_subgroups",
        lambda g, spec: chains.update([spec.n]) or subgroups(g, spec))
    run_suite("all")
    # thm4.1, cor4.4 and cor5.4 ask for P(1,2), P(1,3) and P(2,3) twice
    assert classified == Counter(
        ["P(1,2)", "P(1,3)", "P(1,5)", "P(2,2)", "P(2,3)"])
    # thm4.2 and thm4.2-links both read the chain of P(2,2)
    assert chains == Counter([2, 3])
    chains.clear()
    run_suite("thm4.2-links")
    assert chains == Counter([2])


def test_out_of_range_comparison_raises_cap_error(monkeypatch):
    # P(3,3) has order 3^7 = 2187, and the image of the lifted (3,3,1)
    # group, P(1,27), 3^7 as well: the isomorphism search refuses both,
    # and that CapError is the one size-limit signal (exit 3 in the CLI).
    # It comes from the spec orders, before any table is built.
    assert 3 ** 7 > ISO_ORDER_CAP

    def no_table(spec):
        raise AssertionError(f"built the table of {spec.name}")

    # every spec's table is built by this one function, called by name
    # from ``groupcore.extension_group`` and ``lifted.pi_image_group``
    for module in (groupcore, lifted):
        monkeypatch.setattr(module, "extension_table", no_table)
    for check, args in ((corollary43_check, (3, 1, 3)),
                        (corollary52_53_check, (3, 3, 1))):
        with pytest.raises(CapError, match="isomorphism search capped"):
            check(*args)


def test_odd_image_is_the_pauli_group_of_the_run():
    # for odd p the image's keys are those of P_{n,q}, so the run shares
    # one table; for p = 2 the image keeps its doubled phases
    with groupcore.run_scope():
        assert (pi_image_group(lifted_spec(3, 2, 1))
                is pauli_group(pauli_spec(3, 2, 1)))
    spec = lifted_spec(2, 2, 1)
    image = pi_image_group(spec)
    assert list(image.elements) == sorted(
        {pi_map(spec, g) for g in spec.elements()})
    assert {key[0] for key in image.elements} == {0, 2}


@pytest.mark.parametrize("instance", [(3, 1, 1), (3, 1, 2)])
def test_cor43_searches_once_per_instance(instance, monkeypatch, built):
    # at m = 1 the full and reduced variants are one spec, so the full
    # variant has the reduced one's verdict with no group of its own:
    # only P against the reduced variant is compared, and searched
    certified = []
    certify = groupcore.certify
    monkeypatch.setattr(groupcore, "certify", lambda *args: certified.append(
        certify(*args)) or certified[-1])
    report = corollary43_check(*instance)
    assert report.status == "confirmed"
    assert report.witness["full_variant_isomorphic"]
    assert certified == [False]
    p, m, n = instance
    assert [spec for spec, _ in built["groups"]] == [
        pauli_spec(p, m, n), heis_spec(field_make(p, m), n, reduced=True)]
