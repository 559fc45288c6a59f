"""Machine-readable outcome records: decomposition reports, classification
flags, and claim verdicts.  The registered claims themselves, with their
locators and expected statuses, are the one table ``claims.CLAIMS``.

``dump_json`` is the one serialiser.  A record, here or elsewhere (the
census and the lattice), is a dataclass that holds its printed form, and
it is written as its fields, nested records included: a verdict's wall
time is rounded when it is measured, and census keys are strings.

Verdict statuses, by increasing severity (``STATUSES``):

* ``confirmed``: the brute-force oracle agrees with the registered claim.
* ``inconsistent_in_paper``: the claim as registered is self-contradictory
  and the verdict records which reading the oracle supports.
* ``refuted_at_desk_scale``: the oracle disagrees on a concrete instance;
  the witness field carries the counterexample.

An instance too large to decide has no status: it raises ``CapError``.

The error types and the default caps of the commands live here too, in a
module that imports no numpy, so that ``--help`` and an unknown spec
load no numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, is_dataclass

STATUSES = ("confirmed", "inconsistent_in_paper", "refuted_at_desk_scale")

CLASSIFICATIONS = ("weak_central", "central", "none")

DEFAULT_CLOSURE_CAP = 4096
DEFAULT_SUBGROUP_CAP = 256


class CapError(RuntimeError):
    """A cap or size limit was exceeded: the input is valid but too large
    for the exhaustive computation asked of it."""


class GroupStructureError(RuntimeError):
    """The supplied elements do not form a group, or an internal
    cross-check failed (which would indicate a bug, not bad input)."""


@dataclass
class DecompositionReport:
    """Outcome of a (chain of) weak central product checks."""

    group: str
    factors: list  # list of dicts {order, isomorphism_type[, normal]}
    links: list    # list of dicts {order, source} for L_1 .. L_{n-1}
    commutators: list  # orders of [H_1...H_j, H_{j+1}]
    intersections: list  # orders of H_1...H_j cap H_{j+1}
    classification: str
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"classification must be one of {CLASSIFICATIONS}")


@dataclass
class ClassificationFlags:
    """Structural booleans with evidence for the False cases."""

    just_nonabelian: bool
    minimal_nonabelian: bool
    evidence: dict = field(default_factory=dict)


@dataclass
class VerdictReport:
    claim: str
    locator: str
    status: str
    witness: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}")


def _fields(obj) -> dict:
    """A record, at any depth, is written as its fields."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return vars(obj)
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """Deterministic JSON for reports: sorted keys, stable separators."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_fields)
