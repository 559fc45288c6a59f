"""`decompose` stdout, byte for byte, against files captured at 09fc21e
(before the decompositions shared one weak-central-product fold).  The
last three specs, groups that are not extraspecial, were captured when
`decompose` began to report them as one factor instead of exiting 2."""

import re
from pathlib import Path

import pytest

from paulidecomp.cli import main

EXPECTED = Path(__file__).parent / "decompose_stdout"
SPECS = (
    "pauli:p=2,n=1", "pauli:p=2,n=2", "pauli:p=2,n=3",
    "pauli:p=3,n=1", "pauli:p=3,n=2", "pauli:p=3,m=2,n=1",
    "e1:p=3", "e2:p=3", "d8", "q8",
    "heis:R=gf(3),n=2",
    "heis:R=gf(2),n=2,cocycle=polarized",
    "heis:R=gf(2),n=3,cocycle=polarized",
    "heis:R=gf(4),n=1", "heis:R=z(9),n=1", "trivial",
)


def expected_path(spec: str) -> Path:
    return EXPECTED / (re.sub(r"[^a-z0-9]+", "_", spec).strip("_") + ".json")


@pytest.mark.parametrize("spec", SPECS)
def test_decompose_stdout(spec, capsys):
    assert main(["decompose", spec]) == 0
    assert capsys.readouterr().out == expected_path(spec).read_text()
