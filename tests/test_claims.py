import itertools

import pytest

from paulidecomp.claims import CHECKS, EXPECTED, _worst_status, run_suite
from paulidecomp.reports import CLAIMS, STATUSES


def test_registry_consistency():
    assert set(CHECKS) == set(CLAIMS)
    assert set(EXPECTED) == set(CHECKS)
    assert all(v in STATUSES for v in EXPECTED.values())


def test_single_scope():
    reports = run_suite("eq19")
    assert len(reports) == 1
    assert reports[0].claim == "eq19"
    assert reports[0].status == "confirmed"


def test_report_json_shape():
    rep = run_suite("eq19")[0]
    d = rep.to_json()
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


MULTISETS = [c for k in (1, 2, 3)
             for c in itertools.combinations_with_replacement(STATUSES, k)]


@pytest.mark.parametrize("statuses", MULTISETS, ids="+".join)
def test_worst_status_matches_old_folds(statuses):
    folded = _worst_status(statuses)
    assert folded == _old_cor43_rule(statuses)
    if "inconsistent_in_paper" not in statuses:
        assert folded == _old_cor53_rule(statuses)
