import json
import types

import numpy as np
import pytest

from paulidecomp.claims import VerdictReport
from paulidecomp.heisenberg import dihedral8
from paulidecomp.products import DecompositionReport
from paulidecomp.reports import dump_json


def test_dump_json_writes_nested_records_as_their_fields():
    inner = VerdictReport(claim="eq19", locator="Eq. (19)",
                          status="confirmed", witness={"n": 1},
                          wall_time_s=0.125)
    outer = VerdictReport(claim="cor4.3", locator="Corollary 4.3",
                          status="confirmed", witness={"(3,1,1)": inner})
    rep = DecompositionReport(group="G", factors=[], links=[],
                              commutators=[], intersections=[],
                              classification="none")
    doc = json.loads(dump_json({"runs": [outer], "report": rep}))
    assert doc == {
        "runs": [{"claim": "cor4.3", "locator": "Corollary 4.3",
                  "status": "confirmed", "wall_time_s": 0.0,
                  "witness": {"(3,1,1)": {
                      "claim": "eq19", "locator": "Eq. (19)",
                      "status": "confirmed", "witness": {"n": 1},
                      "wall_time_s": 0.125}}}],
        "report": {"group": "G", "factors": [], "links": [],
                   "commutators": [], "intersections": [],
                   "classification": "none", "notes": []},
    }
    # sorted keys and a two-space indent
    assert dump_json(inner).splitlines()[:2] == ['{', '  "claim": "eq19",']


@pytest.mark.parametrize("value", [object(), np.int64(1),
                                   DecompositionReport,
                                   types.SimpleNamespace(a=1), dihedral8()])
def test_dump_json_refuses_what_is_not_a_record(value):
    with pytest.raises(TypeError):
        dump_json({"value": value})
