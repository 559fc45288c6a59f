"""The numpy-free, dataclass-free front that ``cli`` imports at start-up:
the error types, the default caps of the commands, the verdict statuses
and the one JSON serialiser, so that ``--help`` and a usage error load
neither numpy nor ``dataclasses``.  Each record is defined beside its only
builder, in ``products``, ``claims`` or ``census``, and the registered
claims are the one table ``claims.CLAIMS``.

``dump_json`` is the one serialiser.  A record is a dataclass that holds
its printed form, and it is written as its fields, nested records
included: a verdict's wall time is rounded when it is measured, and
census keys are strings.

Verdict statuses, by increasing severity (``STATUSES``):

* ``confirmed``: the brute-force oracle agrees with the registered claim.
* ``inconsistent_in_paper``: the claim as registered is self-contradictory
  and the verdict records which reading the oracle supports.
* ``refuted_at_desk_scale``: the oracle disagrees on a concrete instance;
  the witness field carries the counterexample.

An instance too large to decide has no status: it raises ``CapError``.
"""

from __future__ import annotations

import json

STATUSES = ("confirmed", "inconsistent_in_paper", "refuted_at_desk_scale")

DEFAULT_CLOSURE_CAP = 4096
DEFAULT_SUBGROUP_CAP = 256


class CapError(RuntimeError):
    """A cap or size limit was exceeded: the input is valid but too large
    for the exhaustive computation asked of it."""


class GroupStructureError(RuntimeError):
    """The supplied elements do not form a group, or an internal
    cross-check failed (which would indicate a bug, not bad input)."""


def _fields(obj) -> dict:
    """A record, at any depth, is written as its fields.  A record is a
    dataclass instance: its type carries the marker ``is_dataclass`` reads."""
    if hasattr(type(obj), "__dataclass_fields__"):
        return vars(obj)
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """Deterministic JSON for reports: sorted keys, stable separators."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_fields)
