"""Abelian subgroup counting and Hasse diagrams of subgroup lattices of
p-groups.  The c_ab bounds for qubit Pauli groups are adjudicated in
``claims``.

The census walks only the abelian subgroups, in steps of index p inside
centralizers (``FiniteGroup.abelian_layers``), and never enumerates the
full lattice; an abelian A is maximal abelian exactly when C_G(A) = A,
and the walk carries C_G(A) for every A it finds.  Hasse diagrams read
the covers of the full lattice, which are the steps of its enumeration
(``FiniteGroup.covers``).  Both walks serve p-groups only and raise
ValueError for any other group.

Counting convention: c_ab(G) counts every abelian subgroup except the
trivial one; the whole group is included when abelian.  This calibration
reproduces c_ab(D8) = 8 and c_ab(P_{1,2}) = 17.

The paper's three named-subgroup figures are one table, ``FIGURES``,
keyed by the spec each draws, so every spec of the same law finds its
figure (heis:R=z(3),n=1 draws H(GF(3))'s); ``cli`` builds the group and
hands the named subgroups to ``hasse``.  This module loads no numpy: at
import the table holds only specs and functions, no group is built, and
``cli`` refuses a spec with no figure before any table is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .algebra import D8, field_make, heis_spec, p12_named_elements, pauli_spec

if TYPE_CHECKING:
    from .groupcore import FiniteGroup, SubgroupHandle


@dataclass
class CensusResult:
    group: str
    c_ab: int
    by_order: dict          # "16" -> count of abelian subgroups of order 16
    by_order_normality: dict  # "16:normal" or "16:nonnormal" -> count
    maximal_abelian_orders: list
    normal_count: int
    nonnormal_count: int


def abelian_census(g: FiniteGroup) -> CensusResult:
    """Exact enumeration of the abelian subgroups of the p-group G, read
    from the layers of the walk: each flags its normal subgroups and
    carries |C_G(A)|, and A is maximal abelian when that is |A|.  Raises
    ValueError when |G| is neither 1 nor a prime power."""
    layers = g.abelian_layers()[1:]
    orders = [layer.order for layer in layers for _ in layer.keys]
    normal = [flag for layer in layers for flag in layer.normal.tolist()]
    return CensusResult(
        group=g.name or f"order{g.order}",
        c_ab=len(orders),
        by_order=dict(Counter(map(str, orders))),
        by_order_normality=dict(Counter(
            f"{o}:{'normal' if f else 'nonnormal'}"
            for o, f in zip(orders, normal))),
        maximal_abelian_orders=[
            layer.order for layer in layers
            for c in layer.centralizer_orders.tolist() if c == layer.order],
        normal_count=sum(normal),
        nonnormal_count=len(orders) - sum(normal),
    )


# ---------------------------------------------------------------------------
# Hasse lattices
# ---------------------------------------------------------------------------

@dataclass
class LatticeGraph:
    group: str
    nodes: list = field(default_factory=list)  # dicts, canonical order
    edges: list = field(default_factory=list)  # (lower_id, upper_id)


def hasse(g: FiniteGroup, named: dict | None = None) -> LatticeGraph:
    """The Hasse diagram of the subgroup lattice of the p-group G, or of
    its subgroups in ``named`` (member tuple -> label) when given: an edge
    H -> K for each cover H < K of G with both ends kept.  Nodes follow
    the canonical (order, members) order of ``subgroups_all`` and edges
    are sorted by the orders of their ends, then by node ids.  Raises
    ValueError when |G| is neither 1 nor a prime power."""
    kept = {i: h for i, h in enumerate(g.subgroups_all())
            if named is None or h.members in named}
    ids = dict(zip(kept, range(len(kept))))
    center, derived = g.center_indices, g.derived_indices
    frattini = g.frattini().members
    abelian = g.abelian_flags([h.members for h in kept.values()])
    nodes = [{
        "id": ids[i],
        "label": named[h.members] if named else _default_label(h, g),
        "order": h.order,
        "abelian": flag,
        "normal": h.is_normal(),
        "center": h.members == center,
        "derived": h.members == derived,
        "frattini": h.members == frattini,
    } for (i, h), flag in zip(kept.items(), abelian)]
    # covers come sorted and rise by index p, so they are also sorted by
    # the orders of their ends
    edges = [(ids[i], ids[j]) for i, j in g.covers().tolist()
             if i in ids and j in ids]
    return LatticeGraph(group=g.name or f"order{g.order}", nodes=nodes,
                        edges=edges)


def _default_label(h: SubgroupHandle, g: FiniteGroup) -> str:
    if h.order == 1:
        return "1"
    if h.order == g.order:
        return g.name or "G"
    return f"S{h.order}." + ".".join(str(i) for i in h.members[:4])


def _p12_words(s) -> dict:
    """The generators of the 13 named subgroups of P(1,2), as words in
    its named elements u, a and b."""
    e = p12_named_elements()
    u, a, b = e["u"], e["a"], e["b"]
    u2, ua = s.mul(u, u), s.mul(u, a)
    return {"1": [], "<u^2>": [u2], "<a>": [a], "<ua>": [ua],
            "<u^2a>": [s.mul(u2, a)], "<u^3a>": [s.mul(s.mul(u2, u), a)],
            "<u>": [u], "<b>": [b], "<u^2,a>": [u2, a],
            "<u^2,ua>": [u2, ua], "<u,a>": [u, a], "<u,b>": [u, b],
            "<u,a,b>": [u, a, b]}


def _heis_words(s) -> dict:
    """The generators of the 7 named subgroups of H(GF(3))."""
    x, y, z = s.element([1], [0]), s.element([0], [1]), s.element([0], [0], 1)
    return {"1": [], "<x>": [x], "<y>": [y], "Z": [z], "A": [z, x],
            "B": [z, y], "G": [x, y]}


# The paper's named-subgroup diagrams, keyed by law: a function of the
# spec giving the generators of each named subgroup (the P(1,2) words call
# the scalar ``mul``, so they are computed only when the figure is drawn),
# or None for D8, whose figure is its whole 10-node lattice.
FIGURES = {D8: None, pauli_spec(2, 1, 1): _p12_words,
           heis_spec(field_make(3, 1)): _heis_words}


def export_dot(lat: LatticeGraph) -> str:
    """Graphviz DOT, bottom-up ranks by subgroup order, abelian nodes
    drawn as ellipses and nonabelian ones as boxes."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    by_order: dict = {}
    for node in lat.nodes:
        shape = "ellipse" if node["abelian"] else "box"
        style = ' style=bold' if node["normal"] else ""
        lines.append(
            f'  n{node["id"]} [label="{node["label"]}" shape={shape}{style}];')
        by_order.setdefault(node["order"], []).append(node["id"])
    for order in sorted(by_order):
        ids = "; ".join(f"n{i}" for i in by_order[order])
        lines.append(f"  {{ rank=same; {ids}; }}")
    for lo, hi in lat.edges:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
