"""`census` stdout, byte for byte, against files captured at 37a15b2
(before the census record held its keys as strings).  The order-1024
capture `pauli_p_2_n_4.json` (`census pauli:p=2,n=4 --cap-subgroups
1024`, about 13 s) is compared by a CI step, not here."""

import re
from pathlib import Path

import pytest

from paulidecomp.cli import main

EXPECTED = Path(__file__).parent / "census_stdout"
SPECS = (
    "trivial", "d8", "q8",
    "pauli:p=2,n=1", "pauli:p=2,n=2", "pauli:p=2,n=3",
    "pauli:p=3,n=1", "pauli:p=3,n=2",
    "heis:R=z(4),n=1", "heis:R=z(9),n=1", "lifted:p=2,m=2,n=1",
)


def expected_path(spec: str) -> Path:
    return EXPECTED / (re.sub(r"[^a-z0-9]+", "_", spec).strip("_") + ".json")


@pytest.mark.parametrize("spec", SPECS)
def test_census_stdout(spec, capsys):
    # heis:R=z(9),n=1 has order 729, above the default --cap-subgroups;
    # the cap changes no output
    assert main(["census", spec, "--cap-subgroups", "1024"]) == 0
    assert capsys.readouterr().out == expected_path(spec).read_text()
