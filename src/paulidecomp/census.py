"""Abelian subgroup counting and Hasse diagrams of subgroup lattices.
The c_ab bounds for qubit Pauli groups are adjudicated in ``claims``.

The census walks only the abelian subgroups, by cyclic extension inside
centralizers (``FiniteGroup.abelian_layers``), and never enumerates the
full lattice; an abelian A is maximal abelian exactly when C_G(A) = A,
and the walk carries C_G(A) for every A it finds.  Hasse diagrams read
the covers of the full lattice, which its enumeration records
(``FiniteGroup.covers``), so they are drawn for p-groups only.

Counting convention: c_ab(G) counts every abelian subgroup except the
trivial one; the whole group is included when abelian.  This calibration
reproduces c_ab(D8) = 8 and c_ab(P_{1,2}) = 17.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .algebra import field_make
from .groupcore import FiniteGroup, SubgroupHandle
from .heisenberg import dihedral8, heis_group, heis_spec
from .pauli import p12_named_elements, pauli_group, pauli_spec


@dataclass
class CensusResult:
    group: str
    c_ab: int
    by_order: dict          # order -> count of abelian subgroups
    by_order_normality: dict  # (order, normal) -> count
    maximal_abelian_orders: list
    normal_count: int
    nonnormal_count: int

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "c_ab": self.c_ab,
            "by_order": {str(k): v for k, v in sorted(self.by_order.items())},
            "by_order_normality": {
                f"{k[0]}:{'normal' if k[1] else 'nonnormal'}": v
                for k, v in sorted(self.by_order_normality.items())},
            "maximal_abelian_orders": self.maximal_abelian_orders,
            "normal_count": self.normal_count,
            "nonnormal_count": self.nonnormal_count,
        }


def abelian_census(g: FiniteGroup) -> CensusResult:
    """Exact enumeration of the abelian subgroups of G, read from the
    layers of the walk: each flags its normal subgroups and carries
    |C_G(A)|, and A is maximal abelian when that is |A|."""
    layers = g.abelian_layers()[1:]
    orders = [layer.order for layer in layers for _ in layer.keys]
    normal = [flag for layer in layers for flag in layer.normal.tolist()]
    return CensusResult(
        group=g.name or f"order{g.order}",
        c_ab=len(orders),
        by_order=dict(Counter(orders)),
        by_order_normality=dict(Counter(zip(orders, normal))),
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
    edges: list = field(default_factory=list)  # [lower_id, upper_id]

    def to_json(self) -> dict:
        return {"group": self.group, "nodes": self.nodes,
                "edges": [list(e) for e in self.edges]}


def hasse(g: FiniteGroup, subgroups: list[SubgroupHandle] | None = None,
          labels: list[str] | None = None) -> LatticeGraph:
    """The Hasse diagram of the subgroup lattice of the p-group G,
    restricted to the given subgroups (default: all): an edge H -> K for
    each cover H < K of G with both ends listed.  Nodes are listed in
    canonical (order, members) order and edges sorted by the orders of
    their ends, then by node ids.  Raises ValueError when |G| is neither
    1 nor a prime power."""
    lattice = g.subgroups_all()
    covers = g.covers()
    if subgroups is None:
        subgroups, labels = lattice, None
    pairs = sorted(range(len(subgroups)),
                   key=lambda i: (subgroups[i].order, subgroups[i].members))
    subgroups = [subgroups[i] for i in pairs]
    if labels is not None:
        labels = [labels[i] for i in pairs]
    center = g.center_indices
    derived = g.derived_indices
    frattini = g.frattini().members
    nodes = [{
        "id": i,
        "label": labels[i] if labels else _default_label(h, g),
        "order": h.order,
        "abelian": h.is_abelian(),
        "normal": h.is_normal(),
        "center": h.members == center,
        "derived": h.members == derived,
        "frattini": h.members == frattini,
    } for i, h in enumerate(subgroups)]
    listed = {h.members: i for i, h in enumerate(subgroups)}
    ids = [listed.get(h.members) for h in lattice]
    # covers come sorted and rise by index p, so they are also sorted by
    # the orders of their ends
    edges = [(ids[i], ids[j]) for i, j in covers.tolist()
             if ids[i] is not None and ids[j] is not None]
    return LatticeGraph(group=g.name or f"order{g.order}", nodes=nodes,
                        edges=edges)


def _default_label(h: SubgroupHandle, g: FiniteGroup) -> str:
    if h.order == 1:
        return "1"
    if h.order == g.order:
        return g.name or "G"
    return f"S{h.order}." + ".".join(str(i) for i in h.members[:4])


def paper_figure_lattice(kind: str) -> LatticeGraph:
    """The named-subgroup diagrams: 'd8' (the full 10-node lattice),
    'p12' (the 13 named subgroups of the order-16 group), and 'heis'
    (the 7-node diagram for H(GF(3)))."""
    kind = kind.lower()
    if kind == "d8":
        g = dihedral8()
        return hasse(g)
    if kind == "p12":
        s = pauli_spec(2, 1, 1)
        g = pauli_group(s)
        e = p12_named_elements()
        u, a, b = e["u"], e["a"], e["b"]

        def w(*gens):
            return g.generated_subgroup(list(gens))

        u2 = s.mul(u, u)
        ua = s.mul(u, a)
        u2a = s.mul(u2, a)
        u3a = s.mul(s.mul(u2, u), a)
        named = [
            ("1", g.trivial_subgroup()),
            ("<u^2>", w(u2)),
            ("<a>", w(a)),
            ("<ua>", w(ua)),
            ("<u^2a>", w(u2a)),
            ("<u^3a>", w(u3a)),
            ("<u>", w(u)),
            ("<b>", w(b)),
            ("<u^2,a>", w(u2, a)),
            ("<u^2,ua>", w(u2, ua)),
            ("<u,a>", w(u, a)),
            ("<u,b>", w(u, b)),
            ("<u,a,b>", w(u, a, b)),
        ]
        return hasse(g, [h for _, h in named], [n for n, _ in named])
    if kind == "heis":
        hs = heis_spec(field_make(3, 1))
        g = heis_group(hs)
        x = hs.element([1], [0])
        y = hs.element([0], [1])
        z = ((0,), (0,), 1)
        named = [
            ("1", g.trivial_subgroup()),
            ("<x>", g.generated_subgroup([x])),
            ("<y>", g.generated_subgroup([y])),
            ("Z", g.generated_subgroup([z])),
            ("A", g.generated_subgroup([z, x])),
            ("B", g.generated_subgroup([z, y])),
            ("G", g.whole_subgroup()),
        ]
        return hasse(g, [h for _, h in named], [n for n, _ in named])
    raise ValueError(f"unknown figure kind {kind!r}")


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
