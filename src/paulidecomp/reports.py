"""Machine-readable outcome records: decomposition reports, classification
flags, and claim verdicts.

Verdict statuses:

* ``confirmed``: the brute-force oracle agrees with the registered claim.
* ``refuted_at_desk_scale``: the oracle disagrees on a concrete instance;
  the witness field carries the counterexample.
* ``inconsistent_in_paper``: the claim as registered is self-contradictory
  and the verdict records which reading the oracle supports.
* ``out_of_cap``: the instance exceeds the configured size caps.

The error types and the default caps of the commands live here too, in a
module that imports no numpy, so that ``--help`` and an unknown spec
load no numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

STATUSES = ("confirmed", "refuted_at_desk_scale", "inconsistent_in_paper",
            "out_of_cap")

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
    factors: list  # list of dicts {order, isomorphism_type, generators}
    links: list    # list of dicts {order, source} for L_1 .. L_{n-1}
    commutators: list  # orders of [H_1...H_j, H_{j+1}]
    intersections: list  # orders of H_1...H_j cap H_{j+1}
    classification: str
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"classification must be one of {CLASSIFICATIONS}")

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "factors": self.factors,
            "links": self.links,
            "commutators": self.commutators,
            "intersections": self.intersections,
            "classification": self.classification,
            "notes": list(self.notes),
        }


@dataclass
class ClassificationFlags:
    """Structural booleans with evidence for the False cases."""

    extraspecial: bool
    generalized_extraspecial: bool
    just_nonabelian: bool
    minimal_nonabelian: bool
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "extraspecial": self.extraspecial,
            "generalized_extraspecial": self.generalized_extraspecial,
            "just_nonabelian": self.just_nonabelian,
            "minimal_nonabelian": self.minimal_nonabelian,
            "evidence": self.evidence,
        }


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

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "locator": self.locator,
            "status": self.status,
            "witness": self.witness,
            "wall_time_s": round(self.wall_time_s, 3),
        }


# Registered claims and their source locators.  These ids form the CLI
# interface of the verify subcommand.
CLAIMS = {
    "lemma3.1": "Lemma 3.1",
    "eq13-14": "Eq. (13)-(14)",
    "thm4.1": "Theorem 4.1",
    "thm4.2": "Theorem 4.2",
    "thm4.2-links": "Theorem 4.2 (link structure)",
    "eq6": "Eq. (6) / Remark 3.4",
    "cor4.3": "Corollary 4.3",
    "cor4.4": "Corollary 4.4",
    "cor5.2": "Corollary 5.2",
    "cor5.3": "Corollary 5.3",
    "cor5.4": "Corollary 5.4",
    "cor5.6": "Corollary 5.6",
    "eq19": "Eq. (19)",
    "remark3.9": "Remark 3.9",
    "remark3.2": "Remark 3.2",
}


def dump_json(obj) -> str:
    """Deterministic JSON for reports: sorted keys, stable separators."""
    if hasattr(obj, "to_json"):
        obj = obj.to_json()
    elif isinstance(obj, list):
        obj = [x.to_json() if hasattr(x, "to_json") else x for x in obj]
    return json.dumps(obj, sort_keys=True, indent=2)
