"""The numpy-free, dataclass-free front that ``cli`` imports at start-up:
the error types, the default caps of the commands, the largest order
any group may have, the verdict statuses and the one JSON serialiser, so
that ``--help`` and a usage error load neither numpy nor
``dataclasses``.  Each record is defined beside its only
builder, in ``products``, ``claims`` or ``census``, and the registered
claims are the one table ``claims.CLAIMS``.

``dump_json`` writes dicts with str keys, lists, tuples, str, int, float,
bool, None and records as ``json.dumps(obj, sort_keys=True, indent=2)``
does, and raises TypeError for anything else.  A record is a dataclass
that holds its printed form (a verdict's wall time is rounded when it is
measured, census keys are strings), written as its fields.  A list of
equal-length scalar lists (a lattice's edges) or of flat dicts with one key
set (its nodes) is written from one %-template.

Verdict statuses, by increasing severity (``STATUSES``):

* ``confirmed``: the brute-force oracle agrees with the registered claim.
* ``inconsistent_in_paper``: the claim as registered is self-contradictory
  and the verdict records which reading the oracle supports.
* ``refuted_at_desk_scale``: the oracle disagrees on a concrete instance;
  the witness field carries the counterexample.

An instance too large to decide has no status: it raises ``CapError``.
"""

from __future__ import annotations

# the C function that ``json.encoder`` re-exports, without loading json
from _json import encode_basestring_ascii as _quote
from math import inf

STATUSES = ("confirmed", "inconsistent_in_paper", "refuted_at_desk_scale")

DEFAULT_CLOSURE_CAP = 4096
DEFAULT_SUBGROUP_CAP = 256
# element indices are stored as uint16, so no group is larger; its table
# alone would take 8.6 GB
MAX_ORDER = 1 << 16


class CapError(RuntimeError):
    """A cap or size limit was exceeded: the input is valid but too large
    for the exhaustive computation asked of it."""


class GroupStructureError(RuntimeError):
    """The supplied elements do not form a group, or an internal
    cross-check failed (which would indicate a bug, not bad input)."""


# the text of a scalar, by its exact type; a float as json writes it
_SCALARS = {str: _quote, int: int.__repr__, type(None): lambda _: "null",
            bool: {True: "true", False: "false"}.__getitem__,
            float: lambda x: "NaN" if x != x else "Infinity" if x == inf
            else "-Infinity" if x == -inf else float.__repr__(x)}


def _wrap(brackets: str, parts: list, pad: str) -> str:
    """``parts`` one to a line, indented, between ``brackets``."""
    inner = pad + "  "
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts)
            + f"\n{pad}{brackets[1]}") if parts else brackets


def _uniform(items, pad: str) -> str | None:
    """A nonempty list written from one template when its items are lists
    of one length, or dicts with one key set, of scalars; None otherwise."""
    first = items[0]
    if isinstance(first, dict):
        same = all(isinstance(d, dict) and d.keys() == first.keys()
                   for d in items)
        keys = sorted(first)
        labels = [_quote(k).replace("%", "%%") + ": %s" for k in keys]
        cells = same and [d[k] for d in items for k in keys]
    elif isinstance(first, (list, tuple)):
        same = all(isinstance(r, (list, tuple)) and len(r) == len(first)
                   for r in items)
        labels = ["%s"] * len(first)
        cells = same and [x for row in items for x in row]
    else:
        return None
    if not (labels and same and set(map(type, cells)) <= _SCALARS.keys()):
        return None
    item = _wrap("{}" if isinstance(first, dict) else "[]", labels, pad + "  ")
    return _wrap("[]", [item] * len(items), pad) % tuple(
        x if type(x) is int else _SCALARS[type(x)](x) for x in cells)


def _text(obj, pad: str) -> str:
    """The JSON text of ``obj``, its inner lines indented under ``pad``."""
    for kind in type(obj).__mro__:  # a subclass as json writes it
        if kind in _SCALARS:
            return _SCALARS[kind](obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        return obj and _uniform(obj, pad) or _wrap(
            "[]", [_text(x, inner) for x in obj], pad)
    if not isinstance(obj, dict):  # a record, a dataclass instance
        if not hasattr(type(obj), "__dataclass_fields__"):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        obj = vars(obj)
    # ``sorted`` or ``_quote`` raises TypeError for a key that is not str
    return _wrap("{}", [_quote(k) + ": " + _text(obj[k], inner)
                        for k in sorted(obj)], pad)


def dump_json(obj) -> str:
    """Deterministic JSON for reports: sorted keys, stable separators."""
    return _text(obj, "")
