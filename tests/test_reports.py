import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulidecomp import cli, reports
from paulidecomp.algebra import D8
from paulidecomp.claims import VerdictReport
from paulidecomp.groupcore import extension_group
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
                                   types.SimpleNamespace(a=1),
                                   extension_group(D8)])
def test_dump_json_refuses_what_is_not_a_record(value):
    with pytest.raises(TypeError):
        dump_json({"value": value})


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, [{"a": {(1, 2): 3}}],
                                   [{1: 2}, {1: 3}], {"a": 1, 2: "b"}])
def test_dump_json_refuses_keys_that_are_not_str(value):
    # json.dumps would write these keys as strings; a record's are str
    with pytest.raises(TypeError):
        dump_json(value)


def _json_dumps(value) -> str:
    """The serialiser ``dump_json`` replaced, records written as their
    fields."""
    return json.dumps(value, sort_keys=True, indent=2, default=vars)


_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.sampled_from([2**64, -(10**40)]) | st.floats()
            | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               -0.0])
            | st.text()
            | st.sampled_from(["%", "%s", "%(a)s", "é\x00\n\"\\", "\u2028"]))
# the two shapes ``dump_json`` writes from one template: lists or tuples
# of one length, and dicts with one key set
_ROWS = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(_SCALARS, min_size=k, max_size=k)
    | st.tuples(*[_SCALARS] * k)))
_FLAT_DICTS = st.lists(st.text(max_size=3), min_size=1, max_size=4,
                       unique=True).flatmap(lambda keys: st.lists(
                           st.fixed_dictionaries({k: _SCALARS for k in keys})))
_VALUES = st.recursive(
    _SCALARS | _ROWS | _FLAT_DICTS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_dump_json_writes_what_json_dumps_writes(value):
    assert dump_json(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [
    [[1, 2], [3]],                   # a ragged row
    [[1, 2], [3, [4]]],              # a nested row
    [[1, 2], [3, (4,)]],
    [[1, 2], 3],                     # a scalar among rows
    [[1, 2], (3, 4), [5, 6]],        # tuples among lists: one shape
    [[], []],
    [[np.float64(0.5)], [1.5]],      # a subclass of float
    [{"a": 1}, {"b": 1}],            # another key set
    [{"a": 1, "b": 2}, {"a": 1}],
    [{"b": 1, "a": 2}, {"a": 3, "b": 4}],  # one key set, inserted apart
    [{"a": 1}, {"a": [1]}],          # a nested value
    [{"a": 1}, {"a": {}}],
    [{"a": 1}, [1]],
    [{}, {}],
    [{"%s": 1, "%": "%d"}, {"%": None, "%s": 1.5}],
    [[True, None, "x", 1.5, float("nan")],
     [False, 0, "", -0.0, float("-inf")]],
])
def test_dump_json_near_miss_shapes(value):
    # each value lies next to a shape written from one template; at the
    # top level and nested, as json.dumps writes it
    for doc in (value, {"k": [value, value]}):
        assert dump_json(doc) == _json_dumps(doc)


COMMANDS = [["build", "d8"], ["build", "pauli:p=2,n=2"],
            ["build", "lifted:p=3,m=2,n=1"], ["decompose", "pauli:p=2,n=2"],
            ["decompose", "pauli:p=3,n=1"], ["census", "pauli:p=2,n=2"],
            ["lattice", "pauli:p=2,n=2"], ["lattice", "heis:R=gf(3),n=1"],
            ["lattice", "pauli:p=2,n=1", "--filter", "paper_figure"],
            ["lifted", "p=3,m=2,n=1"], ["verify", "all"]]


def test_every_command_record_written_as_json_dumps_writes_it(monkeypatch,
                                                              capsys):
    written = []

    def checked(value):
        text = dump_json(value)
        assert text == _json_dumps(value)
        written.append(text)
        return text

    monkeypatch.setattr(cli, "dump_json", checked)
    for argv in COMMANDS:
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == "".join(t + "\n" for t in written)
    assert len(written) == len(COMMANDS)


def test_strings_quoted_by_the_function_json_uses():
    # ``reports`` reads it from ``_json``, so no command loads ``json``
    assert reports._quote is json.encoder.encode_basestring_ascii
