"""Generic finite-group engine.

A group is materialized from a canonical list of opaque hashable element
keys plus its index-based multiplication table; everything downstream
(centers, derived and Frattini subgroups, subgroup lattices, quotients,
isomorphism tests) works on that table.  The table comes either from
``tabulate``, one call of a scalar multiplication oracle per pair, or
from a ``CentralExtension`` spec.  Every table is verified at
construction by whole-array checks: Latin square, identity, inverses, and
associativity decided exactly at every order by Light's test.  This module
is the brute-force oracle: a structural claim about any group in the
package is checked here by exhaustive computation, never assumed.

The Pauli, Heisenberg and lifted families are one object: a central
extension of R^n x R^n by a centre C through a bilinear form, given by
its carrier R, n, the form (signed pairs of blocks), the centre (R
itself, Z_p through the trace, or Z_4 through the doubled trace) and the
key layout.  The spec lists its element keys in the order of its table's
indices, has one scalar ``mul`` (the oracle) and one table path: the form
as an array, mapped into the centre, then extended by
``central_extension_table``.  The family modules only choose the
parameters.

Conjugation and commutators are whole-array operations: ``conjugates``
and ``commutators`` return every x^-1 m x and every [a, b] at once, and the
conjugacy classes, derived subgroup, normal closures, normality tests and
the nilpotency bound are read off those arrays.

Subgroups are enumerated by cyclic extension (Neubüser 1960; Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005), with no
closure: from each subgroup H found, as a boolean mask, the walk takes
one x per coset Hx inside a subgroup that normalises H and forms
H<x> = H u Hx u Hx^2 u ... by row gathers of the table until x^i falls
in H.  ``subgroups_all`` draws x from N_G(H); a group is reached by such
steps exactly when it is solvable, so a walk that ends without G raises
``GroupStructureError`` rather than return a partial lattice.
``abelian_subgroups`` draws x from C_G(H) and reaches every abelian
subgroup of any finite group.  ``subgroups_all`` caches its result, so
maximal subgroups, the Frattini subgroup and Hasse diagrams share one
enumeration.  Containment between subgroups is read from one membership
matrix by ``strict_containment``.

Caps: closure from generators is bounded by ``DEFAULT_CLOSURE_CAP`` and
subgroup enumeration by ``DEFAULT_SUBGROUP_CAP``; both can be overridden
per call.  Isomorphism search is limited to order ``ISO_ORDER_CAP`` and
containment matrices to ``CONTAINMENT_CAP`` subgroups.  Every cap or
size limit raises a ``CapError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import NamedTuple

import numpy as np

from .algebra import prime_power

DEFAULT_CLOSURE_CAP = 4096
DEFAULT_SUBGROUP_CAP = 256
ISO_ORDER_CAP = 1024
# strict_containment holds two k x k boolean matrices: 128 MB at this cap
CONTAINMENT_CAP = 8192


class CapError(RuntimeError):
    """A cap or size limit was exceeded: the input is valid but too large
    for the exhaustive computation asked of it."""


class ClosureCapError(CapError):
    """Generated set exceeded the configured closure cap."""

    def __init__(self, cap: int):
        super().__init__(f"closure exceeded the cap of {cap} elements")
        self.cap = cap


class SubgroupCapError(CapError):
    """Group too large for full subgroup enumeration."""

    def __init__(self, order: int, cap: int):
        super().__init__(
            f"group of order {order} exceeds the subgroup-enumeration cap {cap}")
        self.order = order
        self.cap = cap


class GroupStructureError(RuntimeError):
    """The supplied elements/oracle do not form a group, or an internal
    cross-check failed (which would indicate a bug, not bad input)."""


class FiniteGroup:
    """Immutable materialized finite group.

    ``elements`` is the canonical indexed list of opaque keys and ``table``
    the index-based multiplication table (``table[i, j]`` is the index of
    ``elements[i] * elements[j]``).  The table is verified at construction:
    it must be a Latin square, associative (decided exactly at every order
    by Light's test), with a unique identity and two-sided inverses.
    Groups given by a scalar multiplication oracle are tabulated first with
    ``tabulate``.
    """

    def __init__(self, elements, table, name: str = ""):
        elements = list(elements)
        if len(set(elements)) != len(elements):
            raise GroupStructureError("duplicate element keys")
        self.elements = tuple(elements)
        self.name = name
        index = {e: i for i, e in enumerate(self.elements)}
        self._finish_init(np.array(table, dtype=np.int32), index)

    def _finish_init(self, table: np.ndarray, index: dict) -> None:
        n = len(self.elements)
        if table.shape != (n, n):
            raise GroupStructureError(
                f"table of shape {table.shape} for {n} elements")
        self.index = index
        self.table = table
        self.table.setflags(write=False)
        full = np.arange(n, dtype=np.int32)
        if ((np.sort(table, axis=1) != full).any()
                or (np.sort(table, axis=0) != full[:, None]).any()):
            raise GroupStructureError("multiplication table is not a Latin square")
        self._verify_associativity()
        ident = np.flatnonzero((table == full).all(axis=1))
        if len(ident) != 1:
            raise GroupStructureError("no unique identity element")
        self.identity = int(ident[0])
        # the Latin property leaves exactly one j with i * j = identity
        inv = np.argmax(table == self.identity, axis=1).astype(np.int32)
        bad = np.flatnonzero(table[inv, full] != self.identity)
        if len(bad):
            raise GroupStructureError(
                f"element {bad[0]} lacks a two-sided inverse")
        self.inverse = inv
        self.inverse.setflags(write=False)

    def _verify_associativity(self) -> None:
        """Light's test, exact at every order.  The elements s with
        (xy)s = x(ys) for all x, y are closed under multiplication, so it
        suffices to check a set S whose left-nested products
        (..((s1 s2) s3)..) cover the table.  S is picked greedily: the
        first uncovered element joins S until everything is covered."""
        t = self.table
        n = len(self.elements)
        gens: list[int] = []
        covered = np.zeros(n, dtype=bool)
        while not covered.all():
            gens.append(int(np.argmin(covered)))
            covered[:] = False
            covered[gens] = True
            frontier = np.array(gens, dtype=np.int32)
            while len(frontier):
                prod = np.unique(t[np.ix_(frontier, gens)])
                frontier = prod[~covered[prod]]
                covered[frontier] = True
        for s in gens:
            col = t[:, s]
            # [x, y] entries: (xy)s on the left, x(ys) on the right
            if (np.take(col, t) != np.take(t, col, axis=1)).any():
                raise GroupStructureError("multiplication is not associative")

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def conjugates(self, members) -> np.ndarray:
        """Entry [x, k] is x^-1 members[k] x, for every element x."""
        t = self.table
        mem = np.asarray(members, dtype=np.int32)
        return t[t[self.inverse[:, None], mem], np.arange(self.order)[:, None]]

    def commutators(self, left, right) -> np.ndarray:
        """Entry [i, j] is the commutator [left[i], right[j]] =
        left[i]^-1 right[j]^-1 left[i] right[j]."""
        t = self.table
        a = np.asarray(left, dtype=np.int32)[:, None]
        b = np.asarray(right, dtype=np.int32)[None, :]
        return t[t[t[self.inverse[a], self.inverse[b]], a], b]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        full = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        x, k = full, 1
        while not orders.all():
            orders[(x == self.identity) & (orders == 0)] = k
            x = self.table[x, full]
            k += 1
        return tuple(int(o) for o in orders)

    def order_of(self, element) -> int:
        """Order of an element given by key or index."""
        i = element if isinstance(element, (int, np.integer)) else self.index[element]
        return self.element_orders[i]

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.element_orders)

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, listed by least member."""
        least = self.conjugates(np.arange(self.order)).min(axis=0)
        return tuple(tuple(int(x) for x in np.flatnonzero(least == r))
                     for r in np.unique(least))

    @cached_property
    def class_size_of(self) -> tuple[int, ...]:
        out = [0] * self.order
        for cls in self.conjugacy_classes:
            for x in cls:
                out[x] = len(cls)
        return tuple(out)

    # -- subgroup machinery ------------------------------------------------

    def closure_indices(self, seed) -> tuple[int, ...]:
        """Closure of a set of element indices under multiplication, as a
        sorted index tuple."""
        idx = np.unique(np.fromiter(seed, dtype=np.int32, count=-1)) \
            if not isinstance(seed, np.ndarray) else np.unique(seed)
        idx = np.union1d(idx, np.array([self.identity], dtype=np.int32))
        while True:
            prod = np.unique(self.table[np.ix_(idx, idx)])
            if len(prod) == len(idx):
                return tuple(int(x) for x in idx)
            idx = prod

    def subgroup(self, members) -> "SubgroupHandle":
        members = tuple(sorted(int(m) for m in members))
        closed = self.closure_indices(members)
        if closed != members:
            raise GroupStructureError("member set is not a subgroup")
        return SubgroupHandle(self, members)

    def generated_subgroup(self, generators) -> "SubgroupHandle":
        """Subgroup generated by element keys or indices."""
        idx = [g if isinstance(g, (int, np.integer)) else self.index[g]
               for g in generators]
        return SubgroupHandle(self, self.closure_indices(idx))

    def trivial_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, (self.identity,))

    def whole_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, tuple(range(self.order)))

    @cached_property
    def center_indices(self) -> tuple[int, ...]:
        t = self.table
        mask = (t == t.T).all(axis=1)
        return tuple(int(i) for i in np.nonzero(mask)[0])

    def center(self) -> "SubgroupHandle":
        return SubgroupHandle(self, self.center_indices)

    def centralizer(self, members) -> "SubgroupHandle":
        mask = self.centralizer_mask(np.fromiter(members, dtype=np.int32))
        return SubgroupHandle(self, tuple(int(i) for i in np.nonzero(mask)[0]))

    def centralizer_mask(self, members: np.ndarray) -> np.ndarray:
        """Boolean mask of C_G(members)."""
        t = self.table
        return (t[:, members] == t[members, :].T).all(axis=1)

    def normalizer_mask(self, members: np.ndarray) -> np.ndarray:
        """Boolean mask of N_G(members): the x with x^-1 members x inside
        ``members``."""
        inside = np.zeros(self.order, dtype=bool)
        inside[members] = True
        return inside[self.conjugates(members)].all(axis=1)

    @cached_property
    def derived_indices(self) -> tuple[int, ...]:
        full = np.arange(self.order)
        return self.closure_indices(self.commutators(full, full))

    def derived_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, self.derived_indices)

    def normal_closure(self, generators) -> "SubgroupHandle":
        idx = [g if isinstance(g, (int, np.integer)) else self.index[g]
               for g in generators]
        return SubgroupHandle(self, self.closure_indices(self.conjugates(idx)))

    def subgroups_all(self, cap: int = DEFAULT_SUBGROUP_CAP) -> list["SubgroupHandle"]:
        """Every subgroup exactly once, canonically sorted by
        (order, member tuple).  Enumerated on the first call and cached;
        the cap is checked on every call.  Raises GroupStructureError for
        a group that is not solvable."""
        if self.order > cap:
            raise SubgroupCapError(self.order, cap)
        return list(self._subgroups)

    @cached_property
    def _subgroups(self) -> tuple["SubgroupHandle", ...]:
        """The cyclic-extension walk with x drawn from N_G(H).  In a
        solvable group every subgroup K > 1 has a normal subgroup H of
        prime index, so K = H<x> for any x in K outside H, and x lies in
        N_G(H): the walk reaches every subgroup.  Conversely a chain of
        steps H < H<x> with H normal in H<x> and cyclic quotient is a
        subnormal series with cyclic factors, so the walk reaches G
        exactly when G is solvable; otherwise it raises rather than
        return a partial lattice."""
        subs = self._extension_walk(self.normalizer_mask)
        if len(subs[-1]) != self.order:
            raise GroupStructureError(
                "group is not solvable: cyclic extension does not reach it")
        return tuple(SubgroupHandle(self, m) for m in subs)

    def abelian_subgroups(self, cap: int = DEFAULT_SUBGROUP_CAP) -> list["SubgroupHandle"]:
        """Every abelian subgroup exactly once, the trivial one included,
        canonically sorted by (order, member tuple).  The cyclic-extension
        walk with x drawn from C_G(H): each step H<x> of an abelian H is
        abelian, and every abelian subgroup is reached, in any finite
        group."""
        if self.order > cap:
            raise SubgroupCapError(self.order, cap)
        return [SubgroupHandle(self, m)
                for m in self._extension_walk(self.centralizer_mask)]

    def _extension_walk(self, within) -> list[tuple[int, ...]]:
        """Every subgroup reached from 1 by steps H -> H<x> with x in
        ``within(members of H)``, a boolean mask of a subgroup that
        contains and normalises H.  Returns sorted member tuples in
        canonical (order, members) order; no closure is computed."""
        trivial = np.zeros(self.order, dtype=bool)
        trivial[self.identity] = True
        found = {trivial.tobytes(): trivial}
        frontier = [trivial]
        while frontier:
            grown = []
            for h in frontier:
                for k in self._cyclic_extensions(h, within):
                    key = k.tobytes()
                    if key not in found:
                        found[key] = k
                        grown.append(k)
            frontier = grown
        subs = [tuple(np.flatnonzero(m).tolist()) for m in found.values()]
        return sorted(subs, key=lambda m: (len(m), m))

    def _cyclic_extensions(self, h: np.ndarray, within) -> np.ndarray:
        """The subgroups H<x> for the x in ``within(members of H)`` outside
        H, one x per coset Hx (its least member), as rows of a boolean
        membership matrix; H is the mask ``h``.  Since x normalises H,
        H<x> is the union of the cosets H x^i, gathered from the table
        until x^i falls in H."""
        t = self.table
        mem = np.flatnonzero(h)
        outside = np.flatnonzero(within(mem) & ~h)
        reps = np.unique(t[np.ix_(mem, outside)].min(axis=0))
        ext = np.tile(h, (len(reps), 1))
        rows, power = np.arange(len(reps)), reps
        while len(rows):
            ext[rows, t[np.ix_(mem, power)]] = True
            power = t[power, reps[rows]]
            keep = ~h[power]
            rows, power = rows[keep], power[keep]
        return ext

    def maximal_subgroups(self, cap: int = DEFAULT_SUBGROUP_CAP) -> list["SubgroupHandle"]:
        """The proper subgroups with no proper supergroup short of G."""
        subs = [h for h in self.subgroups_all(cap) if h.order < self.order]
        above = strict_containment(subs).any(axis=1)
        return [h for h, a in zip(subs, above) if not a]

    def frattini(self, cap: int = DEFAULT_SUBGROUP_CAP) -> "SubgroupHandle":
        """Intersection of all maximal subgroups; for p-groups cross-checked
        against G^p [G,G] (a mismatch is a fatal internal error)."""
        maximal = self.maximal_subgroups(cap)
        if not maximal:
            return self.whole_subgroup()
        inter = set(maximal[0].members)
        for h in maximal[1:]:
            inter &= set(h.members)
        handle = SubgroupHandle(self, tuple(sorted(inter)))
        pk = prime_power(self.order)
        if pk is not None:
            full = np.arange(self.order)
            powers = full
            for _ in range(pk[0] - 1):
                powers = self.table[powers, full]
            agemo = self.closure_indices(
                np.concatenate([powers, self.derived_indices]))
            if agemo != handle.members:
                raise GroupStructureError(
                    "Frattini cross-check failed: maximal-subgroup intersection "
                    "differs from G^p[G,G] on a p-group")
        return handle

    def quotient(self, n_sub: "SubgroupHandle") -> "FiniteGroup":
        """Coset group G/N for a normal subgroup N.  Element keys of the
        quotient are sorted index tuples of the cosets in this group."""
        if n_sub.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        if not n_sub.is_normal():
            raise ValueError("quotient requires a normal subgroup")
        mem = np.fromiter(n_sub.members, dtype=np.int32)
        coset_of = np.full(self.order, -1, dtype=np.int32)
        cosets = []
        for g in range(self.order):
            if coset_of[g] >= 0:
                continue
            coset = np.sort(self.table[g, mem])
            coset_of[coset] = len(cosets)
            cosets.append(tuple(int(x) for x in coset))
        reps = [c[0] for c in cosets]
        table = coset_of[self.table[np.ix_(reps, reps)]]
        return FiniteGroup(cosets, table,
                           name=f"{self.name}/N" if self.name else "")

    # -- generating sets and fingerprints -----------------------------------

    def generating_set(self) -> tuple[int, ...]:
        """Small deterministic generating set.  Prefers elements outside the
        centralizer of the current generators so that noncommuting relations
        are pinned down early (this keeps isomorphism backtracking shallow)."""
        if self.order == 1:
            return ()
        gens: list[int] = []
        closure = {self.identity}
        orders = self.element_orders
        while len(closure) < self.order:
            best = None
            for i in range(self.order):
                if i in closure:
                    continue
                centralizes = all(self.mul(i, g) == self.mul(g, i) for g in gens)
                key = (centralizes, -orders[i], i)
                if best is None or key < best:
                    best = key
                    best_i = i
            gens.append(best_i)
            closure = set(self.closure_indices(gens))
        return tuple(gens)

    @cached_property
    def order_sequence(self) -> tuple[tuple[int, int], ...]:
        counts: dict[int, int] = {}
        for o in self.element_orders:
            counts[o] = counts.get(o, 0) + 1
        return tuple(sorted(counts.items()))

    @cached_property
    def nilpotency_class_bounded(self) -> int:
        """Nilpotency class if <= 2, else 3 meaning 'larger than 2'."""
        if self.is_abelian:
            return 0 if self.order == 1 else 1
        comms = self.commutators(self.derived_indices, np.arange(self.order))
        return 2 if (comms == self.identity).all() else 3

    def fingerprint(self) -> "GroupFingerprint":
        derived = SubgroupHandle(self, self.derived_indices)
        ab_quotient = self.quotient(derived)
        return GroupFingerprint(
            order=self.order,
            exponent=self.exponent,
            order_sequence=self.order_sequence,
            center_order=len(self.center_indices),
            derived_order=len(self.derived_indices),
            abelianization=abelian_invariants(ab_quotient),
            nilpotency_class=self.nilpotency_class_bounded,
        )

    def report(self) -> dict:
        fp = self.fingerprint()
        out = {
            "order": self.order,
            "exponent": self.exponent,
            "center_order": fp.center_order,
            "derived_order": fp.derived_order,
            "fingerprint": fp.to_json(),
            "order_sequence": [list(t) for t in self.order_sequence],
        }
        if self.order <= DEFAULT_SUBGROUP_CAP:
            out["frattini_order"] = self.frattini().order
        return out

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"<{label} of order {self.order}>"


def group_close(generators, mul, cap: int = DEFAULT_CLOSURE_CAP,
                name: str = "") -> FiniteGroup:
    """Materialize the group generated by ``generators`` under the oracle
    ``mul``.  Raises ClosureCapError when the closure exceeds ``cap``."""
    generators = list(generators)
    elements = list(dict.fromkeys(generators))
    frontier = list(elements)
    elem_set = set(elements)
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                c = mul(a, g)
                if c not in elem_set:
                    elem_set.add(c)
                    new.append(c)
                    if len(elem_set) > cap:
                        raise ClosureCapError(cap)
        frontier = new
    # canonicalize: sort keys so identical generator sets give identical groups
    elements = sorted(elem_set)
    return FiniteGroup(elements, tabulate(elements, mul), name=name)


def tabulate(elements, mul) -> np.ndarray:
    """Index multiplication table of ``elements`` under the scalar oracle
    ``mul``: one oracle call per pair."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    table = np.empty((len(elements), len(elements)), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            k = index.get(mul(a, b))
            if k is None:
                raise GroupStructureError(
                    "multiplication left the element set: not closed")
            table[i, j] = k
    return table


class Centre(NamedTuple):
    """The centre C of a central extension: ``map`` sends each carrier
    value to an element of C, and ``add`` is the addition table of C.
    Elements of C are the integers 0 .. |C| - 1, with 0 the identity."""

    map: tuple[int, ...]
    add: tuple[tuple[int, ...], ...]


def carrier_centre(carrier) -> Centre:
    """C = R, through the identity map."""
    return Centre(tuple(range(carrier.size)), _frozen(carrier.add_table))


def trace_centre(carrier) -> Centre:
    """C = Z_p, through the absolute trace."""
    return Centre(tuple(carrier.trace(x) for x in range(carrier.size)),
                  _frozen(cyclic_add(carrier.p)))


def doubled_trace_centre(carrier) -> Centre:
    """C = Z_4, through twice the absolute trace (characteristic 2: the
    phases i^k, with the Z_2-valued trace landing on +-1)."""
    return Centre(tuple(2 * carrier.trace(x) for x in range(carrier.size)),
                  _frozen(cyclic_add(4)))


@dataclass(frozen=True)
class CentralExtension:
    """The central extension of R^n x R^n by a centre C through a bilinear
    form on R^(2n):

        (c1, v1)(c2, v2) = (c1 + c2 + centre.map[form(v1, v2)], v1 + v2).

    ``carrier`` is a ``FieldSpec`` or a ``ZmodRing``.  A vector v in R^(2n)
    is split into block 0 (its first n coordinates: alpha, or a) and
    block 1 (the last n: beta, or b).  ``form`` is a tuple of signed block
    pairs (sign, left, right), and form(v, w) sums sign * (block left of
    v) . (block right of w) over its terms: ((1, 1, 0),) is b1.a2,
    ((1, 0, 1), (-1, 1, 0)) is a1.b2 - b1.a2.

    Keys are plain-int tuples: (c, alpha, beta) when ``centre_first``,
    else (a, b, c).  ``elements()`` lists them in sorted order, which is
    also the index layout of ``table()``: (c, v) has index c * q^(2n) + v
    when ``centre_first``, else v * |C| + c, with v read as 2n base-q
    digits.  ``mul`` is the scalar oracle; ``table`` builds the same law
    by whole-array operations."""

    carrier: object
    n: int
    form: tuple[tuple[int, int, int], ...]
    centre: Centre
    centre_first: bool
    name: str

    @property
    def order(self) -> int:
        return self.carrier.size ** (2 * self.n) * len(self.centre.add)

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int], ...]:
        """(carrier code of the sign, coordinate of v, coordinate of w)
        for each product the form sums."""
        n = self.n
        return tuple((self.carrier.scalar(sign), left * n + i, right * n + i)
                     for sign, left, right in self.form for i in range(n))

    def _split(self, g) -> tuple[int, tuple]:
        """(centre element, the 2n carrier coordinates) of a key."""
        if self.centre_first:
            return g[0], g[1] + g[2]
        return g[2], g[0] + g[1]

    def _join(self, c: int, v: tuple) -> tuple:
        a, b = v[:self.n], v[self.n:]
        return (c, a, b) if self.centre_first else (a, b, c)

    def _cocycle(self, v: tuple, w: tuple) -> int:
        add, mul = self.carrier.add_table, self.carrier.mul_table
        x = 0
        for coeff, i, j in self._terms:
            x = add[x][mul[coeff][mul[v[i]][w[j]]]]
        return self.centre.map[x]

    def mul(self, g, h):
        c1, v1 = self._split(g)
        c2, v2 = self._split(h)
        add, cadd = self.carrier.add_table, self.centre.add
        v = tuple(add[x][y] for x, y in zip(v1, v2))
        return self._join(cadd[cadd[c1][c2]][self._cocycle(v1, v2)], v)

    def inverse(self, g):
        c, v = self._split(g)
        w = tuple(self.carrier.neg(x) for x in v)
        # g g^-1 = (c + c' + cocycle(v, w), 0) is the identity
        s = self.centre.add[c][self._cocycle(v, w)]
        return self._join(self.centre.add[s].index(0), w)

    def identity(self):
        return self._join(0, (0,) * (2 * self.n))

    def element(self, a, b, c: int = 0):
        """The key with vector blocks a, b and centre element c."""
        if len(a) != self.n or len(b) != self.n:
            raise ValueError(f"vectors must have length n = {self.n}")
        size = self.carrier.size
        v = tuple(int(x) % size for x in (*a, *b))
        return self._join(int(c) % len(self.centre.add), v)

    def elements(self) -> list:
        vecs = list(itertools.product(range(self.carrier.size),
                                      repeat=2 * self.n))
        centre = range(len(self.centre.add))
        if self.centre_first:
            return [self._join(c, v) for c in centre for v in vecs]
        return [self._join(c, v) for v in vecs for c in centre]

    def table(self) -> np.ndarray:
        """The index table of ``elements()``: the form as a q^(2n) x q^(2n)
        array of carrier values, mapped into the centre, then extended."""
        r = self.carrier
        add = np.asarray(r.add_table, dtype=np.int32)
        mul = np.asarray(r.mul_table, dtype=np.int32)
        d = _digits(r.size, 2 * self.n)
        form = np.zeros((len(d), len(d)), dtype=np.int32)
        for coeff, i, j in self._terms:
            form = add[form, mul[coeff, mul[d[:, i, None], d[None, :, j]]]]
        cocycle = np.asarray(self.centre.map, dtype=np.int32)[form]
        return central_extension_table(add, self.n, self.centre.add, cocycle,
                                       self.centre_first)

    def group(self, closure_cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
        if self.order > closure_cap:
            raise ClosureCapError(closure_cap)
        return FiniteGroup(self.elements(), self.table(), name=self.name)


def central_extension_table(add, n: int, centre_add, cocycle,
                            centre_first: bool) -> np.ndarray:
    """Multiplication table of the central extension of R^n x R^n by a
    centre C through a 2-cocycle, built by whole-array operations:

        (c1, v1)(c2, v2) = (c1 + c2 + cocycle[v1, v2], v1 + v2).

    ``add`` is the q x q addition table of the carrier R, ``centre_add``
    the M x M addition table of C and ``cocycle`` a q^(2n) x q^(2n) array
    of centre elements; indices follow the layout of
    ``CentralExtension``."""
    add = np.asarray(add, dtype=np.int32)
    centre_add = np.asarray(centre_add, dtype=np.int32)
    d = _digits(len(add), 2 * n)
    vadd = np.zeros((len(d), len(d)), dtype=np.int32)
    for i in range(2 * n):
        vadd = vadd * len(add) + add[d[:, i, None], d[None, :, i]]
    size, m = len(d), len(centre_add)
    # broadcast over the axes [c1, v1, c2, v2]
    c1 = np.arange(m)[:, None, None, None]
    c2 = np.arange(m)[None, None, :, None]
    centre = centre_add[centre_add[c1, c2], cocycle[None, :, None, :]]
    if centre_first:
        table = centre * size + vadd[None, :, None, :]
    else:
        table = (vadd[None, :, None, :] * m + centre).transpose(1, 0, 3, 2)
    return table.reshape(size * m, size * m)


def cyclic_add(m: int) -> np.ndarray:
    """Addition table of Z/m."""
    return (np.arange(m)[:, None] + np.arange(m)) % m


def _frozen(table) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in table)


def _digits(q: int, k: int) -> np.ndarray:
    """Row v holds the k base-q digits of v, most significant first."""
    return (np.arange(q ** k)[:, None] // q ** np.arange(k - 1, -1, -1)) % q


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of a parent FiniteGroup as a canonical sorted index set."""

    parent: FiniteGroup = field(compare=False)
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def is_abelian(self) -> bool:
        sub = self.parent.table[np.ix_(self.members, self.members)]
        return bool((sub == sub.T).all())

    def is_cyclic(self) -> bool:
        return any(self.parent.element_orders[i] == self.order
                   for i in self.members)

    def is_normal(self) -> bool:
        return bool(self.parent.normalizer_mask(list(self.members)).all())

    def as_group(self, name: str = "") -> FiniteGroup:
        """Materialize this subgroup as a standalone FiniteGroup sharing the
        parent's element keys."""
        remap = np.zeros(self.parent.order, dtype=np.int32)
        remap[list(self.members)] = np.arange(self.order)
        table = remap[self.parent.table[np.ix_(self.members, self.members)]]
        keys = [self.parent.elements[m] for m in self.members]
        return FiniteGroup(keys, table, name=name)

    def __le__(self, other: "SubgroupHandle") -> bool:
        """Containment: every member of this subgroup lies in ``other``."""
        return set(self.members).issubset(other.members)

    def intersect(self, other: "SubgroupHandle") -> "SubgroupHandle":
        return SubgroupHandle(self.parent, tuple(sorted(
            set(self.members) & set(other.members))))

    def product_set(self, other: "SubgroupHandle") -> tuple[int, ...]:
        """The setwise product HK as a sorted index tuple (not necessarily
        a subgroup)."""
        t = self.parent.table
        prod = np.unique(t[np.ix_(self.members, other.members)])
        return tuple(int(x) for x in prod)

    def commutator_with(self, other: "SubgroupHandle") -> "SubgroupHandle":
        g = self.parent
        comms = g.commutators(self.members, other.members)
        return SubgroupHandle(g, g.closure_indices(comms))


def strict_containment(subgroups) -> np.ndarray:
    """Entry [i, j] is True when subgroups[i] is a proper subgroup of
    subgroups[j].  Read off one k x |G| membership matrix M: H_i <= H_j
    unless some member of H_i lies outside H_j, i.e. unless
    (M @ ~M.T)[i, j].  The k x k result is refused above
    ``CONTAINMENT_CAP`` subgroups."""
    if len(subgroups) > CONTAINMENT_CAP:
        raise CapError(f"containment of {len(subgroups)} subgroups exceeds "
                       f"the cap of {CONTAINMENT_CAP}")
    if not subgroups:
        return np.zeros((0, 0), dtype=bool)
    orders = np.array([h.order for h in subgroups])
    m = np.zeros((len(subgroups), subgroups[0].parent.order), dtype=bool)
    m[np.repeat(np.arange(len(subgroups)), orders),
      np.concatenate([h.members for h in subgroups])] = True
    c = m @ ~m.T
    np.logical_not(c, out=c)
    c &= orders[:, None] < orders
    return c


@dataclass(frozen=True)
class GroupFingerprint:
    """Cheap isomorphism invariants: equal fingerprints are necessary (not
    sufficient) for isomorphism."""

    order: int
    exponent: int
    order_sequence: tuple[tuple[int, int], ...]
    center_order: int
    derived_order: int
    abelianization: tuple[int, ...]
    nilpotency_class: int

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "exponent": self.exponent,
            "order_sequence": [list(t) for t in self.order_sequence],
            "center_order": self.center_order,
            "derived_order": self.derived_order,
            "abelianization": list(self.abelianization),
            "nilpotency_class": self.nilpotency_class,
        }


def abelian_invariants(g: FiniteGroup) -> tuple[int, ...]:
    """Elementary divisors (prime-power cyclic factors, sorted) of a finite
    abelian group, recovered from its order statistics."""
    if not g.is_abelian:
        raise ValueError("abelian invariants require an abelian group")
    if g.order == 1:
        return ()
    out = []
    n = g.order
    p = 2
    while n > 1:
        if n % p == 0:
            k_max = 0
            while n % p == 0:
                n //= p
                k_max += 1
            # f[k] = #elements of order dividing p^k = p^(sum_i min(lambda_i, k)),
            # so log_p f[k] - log_p f[k-1] = #parts of the partition >= k
            logs = []
            for k in range(k_max + 1):
                pk = p ** k
                f_k = sum(1 for o in g.element_orders if pk % o == 0)
                s = 0
                while f_k > 1:
                    f_k //= p
                    s += 1
                logs.append(s)
            parts_ge = [logs[k] - logs[k - 1] for k in range(1, k_max + 1)]
            lam = [sum(1 for c in parts_ge if c > i) for i in range(parts_ge[0])]
            out.extend(p ** s for s in lam)
        p += 1
        if p * p > n and n > 1 and all(n % q for q in range(2, p)):
            p = n
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def _bfs_words(g: FiniteGroup, gens: tuple[int, ...]):
    """BFS closure of <gens> recording, for each non-identity element, a
    derivation (element, parent, generator position) with element =
    parent * gens[pos].  Returns (sorted member tuple, derivation list)."""
    seen = {g.identity}
    order_list = [g.identity]
    deriv = []
    head = 0
    while head < len(order_list):
        x = order_list[head]
        head += 1
        for pos, gen in enumerate(gens):
            y = g.mul(x, gen)
            if y not in seen:
                seen.add(y)
                order_list.append(y)
                deriv.append((y, x, pos))
    return tuple(sorted(seen)), deriv


def isomorphic(g: FiniteGroup, h: FiniteGroup):
    """Decide G ≅ H; returns (True, witness) with witness mapping element
    keys of G to element keys of H, or (False, None).

    Strategy: fingerprint pre-filter, then backtracking over images of a
    small generating set of G, pruned by element order and conjugacy-class
    size; the first generator image only ranges over class representatives
    (composing with an inner automorphism of H loses no generality).
    Candidate tuples are validated by rebuilding the partial subgroup map
    and checking multiplication consistency.
    """
    if g.order > ISO_ORDER_CAP or h.order > ISO_ORDER_CAP:
        raise CapError(f"isomorphism search capped at order {ISO_ORDER_CAP}")
    if g.order != h.order:
        return False, None
    if g.fingerprint() != h.fingerprint():
        return False, None
    if g.order == 1:
        return True, {g.elements[0]: h.elements[0]}

    gens = g.generating_set()
    k = len(gens)
    # chain data for each prefix of the generating set
    chain = []
    for i in range(1, k + 1):
        members, deriv = _bfs_words(g, gens[:i])
        chain.append((members, deriv))

    g_orders = g.element_orders
    h_orders = h.element_orders
    g_class = g.class_size_of
    h_class = h.class_size_of

    def candidates(pos: int):
        o, c = g_orders[gens[pos]], g_class[gens[pos]]
        if pos == 0:
            reps = [cls[0] for cls in h.conjugacy_classes]
            pool = reps
        else:
            pool = range(h.order)
        return [x for x in pool if h_orders[x] == o and h_class[x] == c]

    def check_prefix(images: list[int]):
        """Rebuild the map on <gens[:len(images)]>; return the image map
        (index->index) if consistent and injective, else None."""
        i = len(images)
        members, deriv = chain[i - 1]
        phi = {g.identity: h.identity}
        for y, parent, pos in deriv:
            phi[y] = h.mul(phi[parent], images[pos])
        # full consistency: phi(x * gen) == phi(x) * image for every pair
        for x in members:
            px = phi[x]
            for pos in range(i):
                if phi[g.mul(x, gens[pos])] != h.mul(px, images[pos]):
                    return None
        if len(set(phi.values())) != len(members):
            return None
        return phi

    images: list[int] = []

    def backtrack():
        pos = len(images)
        for cand in candidates(pos):
            images.append(cand)
            phi = check_prefix(images)
            if phi is not None:
                if pos + 1 == k:
                    return phi
                result = backtrack()
                if result is not None:
                    return result
            images.pop()
        return None

    phi = backtrack()
    if phi is None:
        return False, None
    witness = {g.elements[a]: h.elements[b] for a, b in phi.items()}
    return True, witness
