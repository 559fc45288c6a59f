"""In-memory spans around the public entry points of each paulidecomp layer.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each entry point listed in ``WRAPPED`` at every place it is bound
(the defining module or class, every ``from .x import y`` copy in another
paulidecomp module, and the verdict functions held in ``claims.CHECKS``),
and the returned function puts the originals back.

``algebra`` and ``cyclotomic`` are not wrapped: they are called about 1e6
times per second from inside the ``mul`` oracles, where a wrapper would
cost more than the call it measures.  Their time shows in
``groupcore.construct``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# The associativity check builds two n^3 int32 arrays for n up to this
# order (groupcore._ASSOC_EXHAUSTIVE_LIMIT at the time the benchmark was
# written); assoc_bytes_computed is derived from it, not measured.
ASSOC_EXHAUSTIVE_LIMIT = 256


def _order_squared(args, result):
    return {"groupcore.oracle_entries": args[0].order ** 2}


def _assoc_bytes(args, result):
    n = len(args[0].elements)
    return {"groupcore.assoc_bytes_computed":
            8 * n ** 3 if n <= ASSOC_EXHAUSTIVE_LIMIT else 0}


def _elements(module):
    return lambda args, result: {f"{module}.elements": result.order}


def _lattice_size(args, result):
    return {"census.lattice_nodes": len(result.nodes),
            "census.lattice_edges": len(result.edges)}


def _found(args, result):
    return {"groupcore.subgroups_found": len(result)}


# (span name, module, attribute path, counter or None).  Several entry
# points may share one span name.
WRAPPED = (
    ("cli.main", "paulidecomp.cli", "main", None),
    ("reports.dump_json", "paulidecomp.reports", "dump_json", None),
    ("groupcore.construct", "paulidecomp.groupcore", "FiniteGroup.__init__",
     _order_squared),
    ("groupcore.verify", "paulidecomp.groupcore", "FiniteGroup._finish_init",
     _assoc_bytes),
    ("groupcore.closure", "paulidecomp.groupcore",
     "FiniteGroup.closure_indices", None),
    ("groupcore.subgroups", "paulidecomp.groupcore",
     "FiniteGroup.subgroups_all", _found),
    ("groupcore.maximal", "paulidecomp.groupcore",
     "FiniteGroup.maximal_subgroups", None),
    ("groupcore.is_normal", "paulidecomp.groupcore",
     "SubgroupHandle.is_normal", None),
    ("groupcore.fingerprint", "paulidecomp.groupcore",
     "FiniteGroup.fingerprint", None),
    ("groupcore.quotient", "paulidecomp.groupcore", "FiniteGroup.quotient",
     None),
    ("groupcore.isomorphic", "paulidecomp.groupcore", "isomorphic", None),
    ("pauli.group", "paulidecomp.pauli", "pauli_group", _elements("pauli")),
    ("heisenberg.group", "paulidecomp.heisenberg", "heis_group",
     _elements("heisenberg")),
    ("lifted.group", "paulidecomp.lifted", "lifted_group",
     _elements("lifted")),
    ("lifted.group", "paulidecomp.lifted", "pi_image_group",
     _elements("lifted")),
    ("products.classify", "paulidecomp.products", "classify_special", None),
    ("products.just_nonabelian", "paulidecomp.products", "just_nonabelian",
     None),
    ("products.minimal_nonabelian", "paulidecomp.products",
     "minimal_nonabelian", None),
    ("products.decompose", "paulidecomp.products", "decompose_pauli_chain",
     None),
    ("products.decompose", "paulidecomp.products", "extraspecial_decompose",
     None),
    ("products.identify_factor", "paulidecomp.products", "identify_factor",
     None),
    ("census.abelian_census", "paulidecomp.census", "abelian_census", None),
    ("census.hasse", "paulidecomp.census", "hasse", _lattice_size),
)

# Spans reported with their children included; every other span is
# reported as self time.  Claim spans ("claims.<id>") are inclusive too.
INCLUSIVE = {"pauli.group", "heisenberg.group", "lifted.group",
             "groupcore.isomorphic"}

# Keys the counters above return, each summed over a run.
COUNTER_NAMES = ("groupcore.oracle_entries", "groupcore.assoc_bytes_computed",
                 "groupcore.subgroups_found", "pauli.elements",
                 "heisenberg.elements", "lifted.elements",
                 "census.lattice_nodes", "census.lattice_edges")

# Spans whose call count is a metric of its own.
COUNTED_CALLS = ("groupcore.verify", "groupcore.closure", "groupcore.subgroups",
                 "groupcore.is_normal", "groupcore.isomorphic")

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans kept in memory as [name, start, end, parent, run, counts];
    ``parent`` is the index of the enclosing span or -1, ``run`` the index
    of the CLI command the span belongs to."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every entry point in WRAPPED and every claim verdict; return a
    function that restores the originals."""
    import paulidecomp.claims  # noqa: F401  (cli imports it only on demand)
    import paulidecomp.cli  # noqa: F401

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("paulidecomp.")]
    undo = []
    for name, module, path, count in WRAPPED:
        owner = sys.modules[module]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = vars(owner)[attr]
        wrapped = tracer.wrap(name, original, count)
        sites = [owner] if cls else [
            m for m in modules if any(v is original for v in vars(m).values())]
        for site in sites:
            for key in [k for k, v in vars(site).items() if v is original]:
                undo.append((site, key, original))
                setattr(site, key, wrapped)
    checks = sys.modules["paulidecomp.claims"].CHECKS
    originals = dict(checks)
    for cid, fn in originals.items():
        checks[cid] = tracer.wrap(f"claims.{cid}", fn)

    def restore():
        for site, key, original in reversed(undo):
            setattr(site, key, original)
        checks.update(originals)

    return restore


def span_names(claim_ids) -> list[str]:
    return sorted({w[0] for w in WRAPPED} | {f"claims.{c}" for c in claim_ids})


def layer_metrics(spans: list[list], claim_ids) -> dict[str, float]:
    """Per-layer metrics from recorded spans: ``<span>_s`` is self time
    (duration minus the children's durations) or, for inclusive spans,
    the duration of the outermost span of that name; ``<span>_calls`` and
    the counter values are sums.  ``groupcore.subgroups_useful_ratio`` is
    subgroups found over closures called directly by ``subgroups_all``;
    ``trace.covered_frac`` is the share of the time inside ``cli.main``
    that layer self times account for (the bodies of ``cli.main`` and of the
    claim verdicts count as uncovered)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    names = span_names(claim_ids)
    self_s = dict.fromkeys(names, 0.0)
    incl_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    counts: dict[str, float] = {}
    under_subgroups = 0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        self_s[name] += end - start - child_time[i]
        calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            incl_s[name] += end - start
        if name == "groupcore.closure" and parent >= 0 \
                and spans[parent][0] == "groupcore.subgroups":
            under_subgroups += 1
        for key, value in (extra or {}).items():
            counts[key] = counts.get(key, 0) + value

    metrics: dict[str, float] = {}
    for name in names:
        inclusive = name in INCLUSIVE or name.startswith("claims.")
        metrics[f"{name}_s"] = incl_s[name] if inclusive else self_s[name]
    for name in COUNTED_CALLS:
        metrics[f"{name}_calls"] = calls[name]
    for key in COUNTER_NAMES:
        metrics[key] = counts.get(key, 0)
    found = counts.get("groupcore.subgroups_found", 0)
    metrics["groupcore.subgroups_useful_ratio"] = (
        found / under_subgroups if under_subgroups else 0.0)
    root_time = incl_s[ROOT_SPAN]
    attributed = sum(t for name, t in self_s.items()
                     if name != ROOT_SPAN and not name.startswith("claims."))
    metrics["trace.wall_s"] = root_time
    metrics["trace.covered_frac"] = attributed / root_time if root_time else 0.0
    return metrics
