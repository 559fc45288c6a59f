"""Generic finite-group engine.

A group is materialized from a canonical list of opaque hashable element
keys plus its index-based multiplication table; everything downstream
(centers, derived and Frattini subgroups, subgroup lattices, quotients,
isomorphism tests) works on that table.  Every table is built one way,
by whole-array operations: a central extension's by ``extension_table``
(a group whose cocycle is not bilinear, from arrays of its own law), a
subgroup's or a quotient's by gathers of its parent's table.  No table
is built by calling a scalar multiplication oracle pair by pair; the
tests keep that oracle as the reference.  Every table is verified at
construction against the group axioms only: entries in range, an
identity, two-sided inverses, and associativity decided exactly at every
order by Light's test (a group table is a Latin square, so that is not
checked).  Light's test and the inverse search work in blocks of
max(1, BLOCK^2 // |G|) rows, about BLOCK^2 entries each at any order, and
the table builder in one block per pair of centre elements, so none of
them copies the table.  This module is the brute-force oracle: a
structural claim about any group in the package is checked here by
exhaustive computation, never assumed.

Facts closed under products are read on the one cached
``generating_set()`` S, not on all of G: Light's test checks (xy)s =
x(ys) for the s in S, the centre is C_G(S), and H is normal iff s^-1 H s
lies in H for each s in S.

Conjugation and commutators are whole-array operations: ``conjugates``
and ``commutators`` return every x^-1 m x and every [a, b] at once, and the
conjugacy classes, derived subgroup, normal closures, normalisers and
normality tests are read off those arrays.  ``abelian_flags`` compares
with its transpose one gather of all products of each block of
max(1, BLOCK^2 // m^2) subgroups of one order m.

A subgroup generated by given elements is read from one walk, ``_walk``:
the orbit algorithm with a Schreier vector (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005).  From the identity, each
breadth-first layer is one gather of the frontier times the generators,
and each new element records its parent and the generator that reached
it; the walk returns its layers as slices of the members.
``closure_indices`` reads the members, and ``isomorphic`` rebuilds
candidate maps along the Schreier vector of each prefix of the
generating set, one returned layer per gather.  It searches only a pair
that nothing cheaper decides: ``certify`` first checks the identity of
indices, on the generating set, and the pre-filter compares the
``invariants``, which need no table of G/G'.  ``generating_set`` needs
only the members, so it grows each <H, x> from the last subgroup H:
H u Hx closed under right multiplication by the generators, with no walk
from the identity.  ``isomorphic`` first drops each candidate image that
changes the order of a commutator with an earlier generator, then checks the
rest in batches of ``_blocks`` (1, 2, 4, ... up to BLOCK), one K x |G|
matrix of maps per batch.  When many closures are wanted at once,
``closures`` takes one seed set per row of a boolean membership matrix
and ORs every row with its right translates, one gather for all rows per
pass, until no row grows: the classification flags ``just_nonabelian``
(one row per conjugacy class) and ``minimal_nonabelian`` (one row per
noncommuting pair) use it, in the batches of the same ``_blocks``,
paying the per-pass numpy overhead once per batch rather than once per
set.

Subgroups of a p-group are enumerated by cyclic extension (Neubüser
1960; Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005), with no closure, in steps of index p: from each subgroup H
found, the walk takes one x per coset Hx with x^p in H, inside a
subgroup that normalises H (its least member), and forms H<x> = H u Hx
u ... u Hx^(p-1) by p - 1 gathers of the table.  ``subgroups_all``
draws x from N_G(H), ``abelian_subgroups`` from C_G(H); no solvability
is tested, and any group that is not a p-group is refused.  The walk
goes one order at a time, each layer feeding the next: the subgroups
of one order are the rows of a boolean matrix, extended in blocks of
rows whose gathers hold at most about BLOCK x |G| entries, and the rows
reached are deduplicated on their masks packed by ``np.packbits``
(|G|/8 bytes each), whose descending byte order is the canonical
(order, members) order.  Each row carries what its next step needs:
the abelian walk carries C_G(H), with C_G(H<x>) = C_G(H) & C_G(x) one
AND with a row of the packed commuting matrix, and the census reads
maximality from it (|C_G(A)| = |A|); the full walk carries the
generators its path added, and N_G(H) is the x that conjugate each of
them into H.  Every step has index p, so the steps of the full walk
are the covering pairs (``covers``), from which the maximal subgroups
and Hasse diagrams are read with no containment test.  The Frattini
subgroup needs no walk: it is G^p[G,G] (Burnside's basis theorem).
No command path calls ``np.unique``
without ``return_index``: under numpy 2 that call imports ``numpy.ma``
on first use, and distinct indices are read off a mask over range(|G|)
instead.

A run, opened by ``run_scope`` (by ``claims.run_suite`` and by ``cli``'s
``decompose``), computes each function declared ``@shared`` at most once
per argument tuple and drops the values when it closes.  Outside a run
nothing is kept.

Every stored array of element indices has one dtype, ``INDEX``
(uint16): the tables, the inverses, a quotient's coset labels, a
subgroup's remap in ``as_group`` and the maps of the isomorphism search.
A table is narrow from its first allocation: ``extension_table`` fills a
uint16 table block by block, and the constructor checks a caller's
entries in the caller's own dtype before it narrows them.  Arithmetic on
index values that can leave [0, 2^16), such as a flat position
row * n + col, runs in intp, since uint16 arithmetic wraps silently.

Limits: no group may have more than ``MAX_ORDER`` (65,536) elements, the
most that uint16 indices can number; the constructor and every table
builder raise a ``CapError`` above it, before any table is allocated.
How large a group a command may build or enumerate is the
command's policy, checked by ``cli`` against the group's order before
any table is built; ``DEFAULT_CLOSURE_CAP`` and ``DEFAULT_SUBGROUP_CAP``
are its defaults, defined with the error types in the numpy-free
``reports``.  The library keeps two limits of its own: isomorphism
search refuses orders above ``ISO_ORDER_CAP``, and
``products.minimal_nonabelian``, which closes every noncommuting pair of
cyclic-subgroup generators, refuses the same orders.  Both raise a
``CapError``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, wraps
from math import isqrt, lcm
from typing import NamedTuple

from .algebra import CentralExtension, prime_power
from .reports import (DEFAULT_SUBGROUP_CAP, MAX_ORDER, CapError,
                      GroupStructureError)

# numpy is imported after the package modules, here and in every module:
# compiled from source (no bytecode cache), they then peak below numpy
import numpy as np

# the dtype of every stored element index (see the module docstring)
INDEX = np.uint16
ISO_ORDER_CAP = 1024
# BLOCK^2 bounds the entries of each gather of Light's test and of the
# inverse search (rows x |G|, ``_row_blocks``): 128 KB of uint16 at any
# order, where the order-4096 table is 32 MB; BLOCK is also the bound on
# rows times seeds per block of ``closures``, the largest batch of
# ``_blocks``, and the bound on the entries of a gather of the subgroup
# walk, over |G|
BLOCK = 256


def refuse_above_max_order(order: int) -> None:
    """The ``CapError`` for a group of more than ``MAX_ORDER`` elements,
    whose indices uint16 cannot hold; asked before a table is allocated."""
    if order > MAX_ORDER:
        raise CapError(f"group of order {order} exceeds the largest order "
                       f"{MAX_ORDER} an index table can hold")


def _row_blocks(n: int) -> list[slice]:
    """Slices of range(n) of max(1, BLOCK^2 // n) rows: one slice up to
    order BLOCK, and at most about BLOCK^2 entries in a block of rows of
    an n x n table."""
    step = max(1, BLOCK * BLOCK // max(n, 1))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


# the values the open run shares (see ``run_scope``), None outside a run;
# a context variable, so a run in one thread shares nothing with another
_run: ContextVar[dict | None] = ContextVar("paulidecomp_run", default=None)


@contextmanager
def run_scope():
    """Open a run: until the block exits, each ``@shared`` function is
    computed at most once per argument tuple.  The values are dropped
    when it exits, by an exception too, so nothing outlives the run."""
    token = _run.set({})
    try:
        yield
    finally:
        _run.reset(token)


def shared(fn):
    """``fn``, computed at most once per argument tuple inside
    ``run_scope``, keyed by ``(fn, args)``; a plain call outside a run."""
    @wraps(fn)
    def memo(*args):
        run = _run.get()
        if run is None:
            return fn(*args)
        key = (fn, args)
        if key not in run:
            run[key] = fn(*args)
        return run[key]
    return memo


class FiniteGroup:
    """Immutable materialized finite group.

    ``elements`` is the canonical indexed list of opaque keys and ``table``
    the index-based multiplication table (``table[i, j]`` is the index of
    ``elements[i] * elements[j]``).  The table is verified at construction
    against the group axioms only: entries in [0, n), an identity,
    two-sided inverses, and associativity, decided exactly by Light's test
    on the generating set.  The table arrives whole, built by array
    operations (a spec's ``table``, or a gather of a parent's table for a
    subgroup or quotient); no scalar multiplication oracle is called.  It
    is stored as ``INDEX``; more than ``MAX_ORDER`` elements raise a
    ``CapError``.
    """

    def __init__(self, elements, table, name: str = ""):
        elements = list(elements)
        refuse_above_max_order(len(elements))
        if len(set(elements)) != len(elements):
            raise GroupStructureError("duplicate element keys")
        self.elements = tuple(elements)
        self.name = name
        index = {e: i for i, e in enumerate(self.elements)}
        table = np.asarray(table)
        n = len(elements)
        if table.shape != (n, n):
            raise GroupStructureError(
                f"table of shape {table.shape} for {n} elements")
        # checked in the caller's dtype, where no entry has wrapped yet
        if n and not 0 <= table.min() <= table.max() < n:
            raise GroupStructureError(f"table entries must lie in [0, {n})")
        # a read-only view: an INDEX table is shared, not copied
        self._finish_init(table.astype(INDEX, copy=False).view(), index)

    def _finish_init(self, table: np.ndarray, index: dict) -> None:
        n = len(self.elements)
        self.index = index
        self.table = table
        self.table.setflags(write=False)
        full = np.arange(n, dtype=INDEX)
        # the identity is among the x with x * x = x
        idem = np.flatnonzero(table.diagonal() == full)
        idem = idem[(table[idem] == full).all(axis=1)
                    & (table[:, idem] == full[:, None]).all(axis=0)]
        if not len(idem):
            raise GroupStructureError("no identity element")
        e = self.identity = int(idem[0])
        inv = np.empty(n, dtype=INDEX)
        for rows in _row_blocks(n):
            inv[rows] = np.argmax(table[rows] == e, axis=1)
        bad = np.flatnonzero((table[full, inv] != e) | (table[inv, full] != e))
        if len(bad):
            raise GroupStructureError(
                f"element {bad[0]} lacks a two-sided inverse")
        self.inverse = inv
        self.inverse.setflags(write=False)
        self._verify_associativity()

    def _verify_associativity(self) -> None:
        """Light's test, exact at every order.  The elements s with
        (xy)s = x(ys) for all x, y are closed under multiplication, in any
        magma, so it suffices to check the s of ``generating_set()``, whose
        walk covers the table.  Each s is checked on blocks of
        max(1, BLOCK^2 // |G|) rows x, so each gather holds at most about
        BLOCK^2 entries whatever the order."""
        t = self.table
        for s in self.generating_set():
            col = t[:, s]
            for block in _row_blocks(self.order):
                rows = t[block]
                # [x, y] entries: (xy)s on the left, x(ys) on the right
                if (np.take(col, rows) != np.take(rows, col, axis=1)).any():
                    raise GroupStructureError(
                        "multiplication is not associative")

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def conjugates(self, members, by=None) -> np.ndarray:
        """Entry [i, k] is x^-1 members[k] x for x = by[i]; ``by`` is
        every element unless given."""
        t = self.table
        x = np.arange(self.order) if by is None else np.asarray(by, np.intp)
        mem = np.asarray(members, dtype=np.intp)
        return t[t[self.inverse[x, None], mem], x[:, None]]

    def commutators(self, left, right) -> np.ndarray:
        """Entry [i, j] is the commutator [left[i], right[j]] =
        left[i]^-1 right[j]^-1 left[i] right[j]."""
        t = self.table
        a = np.asarray(left, dtype=np.intp)[:, None]
        b = np.asarray(right, dtype=np.intp)[None, :]
        return t[t[t[self.inverse[a], self.inverse[b]], a], b]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The least k with x^k = e, x^k read as (..(x x)..) x.  Light's
        test reads them before associativity is known, so the powers stop
        after |G| steps: past that they cycle without reaching e."""
        full = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        x = full
        for k in range(1, self.order + 1):
            orders[(x == self.identity) & (orders == 0)] = k
            if orders.all():
                return tuple(orders.tolist())
            x = self.table[x, full]
        raise GroupStructureError(
            f"element {np.argmin(orders)} has no finite order")

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.element_orders)

    @cached_property
    def is_abelian(self) -> bool:
        return len(self.center_indices) == self.order

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, listed by least member."""
        least = self.conjugates(np.arange(self.order)).min(axis=0)
        classes: dict[int, list[int]] = {}
        for x, m in enumerate(least.tolist()):
            classes.setdefault(m, []).append(x)
        return tuple(tuple(classes[m]) for m in sorted(classes))

    @cached_property
    def class_size_of(self) -> tuple[int, ...]:
        size = {x: len(cls) for cls in self.conjugacy_classes for x in cls}
        return tuple(size[x] for x in range(self.order))

    # -- subgroup machinery ------------------------------------------------

    def _walk(self, gens) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   list[slice]]:
        """Breadth-first walk of <gens> from the identity with its Schreier
        vector: ``(members, parent, pos, layers)``, members in the order
        reached and, for each, the member ``parent`` and the generator
        position ``pos`` with member = parent * gens[pos] (the identity is
        its own parent, at position -1); ``layers`` are the breadth-first
        layers after the identity, as slices of the members.  Each layer
        is one gather of the frontier times the generators, and a new
        element keeps its first occurrence in row-major (frontier,
        generator) order."""
        t = self.table
        gens = np.asarray(gens, dtype=np.intp)
        seen = np.zeros(self.order, dtype=bool)
        seen[self.identity] = True
        frontier = np.array([self.identity])
        members, parent, pos = [frontier], [frontier], [np.array([-1])]
        layers, end = [], 1
        while len(frontier) and len(gens):
            prod = t[frontier[:, None], gens].ravel()
            fresh = np.flatnonzero(~seen[prod])
            step = fresh[np.sort(np.unique(prod[fresh], return_index=True)[1])]
            parent.append(frontier[step // len(gens)])
            pos.append(step % len(gens))
            frontier = prod[step]
            seen[frontier] = True
            members.append(frontier)
            if len(step):
                layers.append(slice(end, end + len(step)))
                end += len(step)
        return (*(np.concatenate(a) for a in (members, parent, pos)), layers)

    def closure_indices(self, seed) -> tuple[int, ...]:
        """The subgroup generated by a set of element indices, as a sorted
        index tuple: the members of the walk of the distinct seeds."""
        if not isinstance(seed, np.ndarray):
            seed = np.fromiter(seed, dtype=np.intp)
        return tuple(np.sort(self._walk(self._distinct(seed))[0]).tolist())

    def _distinct(self, indices) -> np.ndarray:
        """The distinct entries of an array of element indices, sorted,
        read off a mask over range(|G|)."""
        seen = np.zeros(self.order, dtype=bool)
        seen[indices] = True
        return np.flatnonzero(seen)

    def closures(self, seeds) -> np.ndarray:
        """Many closures at once: row k of the K x |G| boolean result is
        the subgroup generated by the seed row ``seeds[k]`` (rows may be
        padded with the identity).  Each row S starts as e and its seeds,
        and is OR-ed with its right translates S g by its seeds until no
        row grows; y lies in S g iff y g^-1 lies in S, so each pass is
        one gather of the rows at ``table[:, g^-1]``.  Rows are closed in
        blocks whose index arrays hold at most BLOCK x |G| entries.  A
        pass gathers whole rows, so it pays off across many rows; one set
        alone is closed faster by ``_walk``, whose layers gather only the
        new frontier."""
        t, n = self.table, self.order
        seeds = np.asarray(seeds, dtype=np.intp)
        out = np.zeros((len(seeds), n), dtype=bool)
        out[:, self.identity] = True
        out[np.arange(len(seeds))[:, None], seeds] = True
        step = max(1, BLOCK // max(seeds.shape[1], 1))
        # row k of a block starts at flat position k n; the intp offsets
        # make the sums below intp, where they cannot wrap
        offsets = np.arange(0, step * n, n, dtype=np.intp)[:, None, None]
        for lo in range(0, len(seeds), step):
            rows = out[lo:lo + step]
            # entry [k, j, y]: the flat position of y g_j^-1 in row k
            where = (t.T[self.inverse[seeds[lo:lo + step]]]
                     + offsets[:len(rows)])
            size = np.count_nonzero(rows)
            while True:
                rows |= rows.ravel()[where].any(axis=1)
                grown, size = size, np.count_nonzero(rows)
                if grown == size:
                    break
        return out

    def generated_subgroup(self, generators) -> "SubgroupHandle":
        """Subgroup generated by element keys or indices."""
        idx = [g if isinstance(g, (int, np.integer)) else self.index[g]
               for g in generators]
        return SubgroupHandle(self, self.closure_indices(idx))

    def whole_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, tuple(range(self.order)))

    @cached_property
    def center_indices(self) -> tuple[int, ...]:
        """Z(G) = C_G(S) for the generating set S."""
        mask = self.centralizer_mask(np.array(self.generating_set(), np.intp))
        return tuple(np.flatnonzero(mask).tolist())

    def center(self) -> "SubgroupHandle":
        return SubgroupHandle(self, self.center_indices)

    def centralizer(self, members) -> "SubgroupHandle":
        mask = self.centralizer_mask(np.fromiter(members, dtype=np.intp))
        return SubgroupHandle(self, tuple(int(i) for i in np.nonzero(mask)[0]))

    def centralizer_mask(self, members: np.ndarray) -> np.ndarray:
        """Boolean mask of C_G(members)."""
        t = self.table
        return (t[:, members] == t[members, :].T).all(axis=1)

    @cached_property
    def derived_indices(self) -> tuple[int, ...]:
        """G' as the normal closure of the commutators [a, b] of a
        generating set: they are commutators, and modulo their normal
        closure N the generators commute, so G/N is abelian."""
        gens = self.generating_set()
        comms = self._distinct(self.commutators(gens, gens))
        return self.closure_indices(self.conjugates(comms))

    def derived_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, self.derived_indices)

    def abelian_flags(self, subgroups) -> list[bool]:
        """Whether each subgroup, given as its sorted members, is abelian."""
        t, flags = self.table, []
        for m, run in itertools.groupby(subgroups, len):
            mem = np.array(list(run), dtype=np.intp)
            step = max(1, BLOCK * BLOCK // (m * m))
            for block in (mem[a:a + step] for a in range(0, len(mem), step)):
                sub = t[block[:, :, None], block[:, None, :]]
                flags += (sub == sub.swapaxes(1, 2)).all(axis=(1, 2)).tolist()
        return flags

    def subgroups_all(self) -> list["SubgroupHandle"]:
        """Every subgroup of a p-group exactly once, canonically sorted by
        (order, member tuple).  Enumerated on the first call and cached.
        Raises ValueError when |G| is neither 1 nor a prime power."""
        return [SubgroupHandle(self, m) for m in self._subgroups[0]]

    @cached_property
    def _subgroups(self) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The cyclic-extension walk with x drawn from N_G(H), and its
        steps, which are the covers.  Every subgroup K > 1 of a p-group
        has a normal subgroup H of index p, and K = H<x> for any x in K
        outside H, with x in N_G(H) and x^p in H, so the last layer is G;
        a walk that ends below G is an internal contradiction.  The
        cache holds member tuples, not handles: a handle refers to its
        parent, and a group holding its handles would be freed only by
        the cyclic garbage collector."""
        layers, covers = self._extension_walk(abelian=False)
        if layers[-1].order != self.order:
            raise GroupStructureError(
                "the subgroup walk of a p-group ended below the group")
        return _member_tuples(layers), covers

    def abelian_subgroups(self) -> list["SubgroupHandle"]:
        """Every abelian subgroup of a p-group exactly once, the trivial
        one included, canonically sorted by (order, member tuple)."""
        return [SubgroupHandle(self, m)
                for m in _member_tuples(self.abelian_layers())]

    def abelian_layers(self) -> list["Layer"]:
        """The abelian subgroups of a p-group as the layers of the
        cyclic-extension walk with x drawn from C_G(H): each step H<x> of
        an abelian H is abelian, and an abelian K > 1 is H<x> for any H of
        index p in K.  Each layer flags its normal subgroups and gives
        |C_G(H)| for each.  Raises ValueError for any other group."""
        return self._extension_walk(abelian=True)[0]

    @cached_property
    def _power_map(self) -> tuple[int, np.ndarray]:
        """(p, x^p for each x) of a p-group, p = 1 for the trivial group;
        the walks and ``frattini_indices`` raise ValueError through it
        for any other group."""
        p, _ = prime_power(self.order) or (1, 0)
        if p == 1 < self.order:
            raise ValueError(
                f"subgroup walks serve p-groups only, not order {self.order}")
        power = full = np.arange(self.order)
        for _ in range(p - 1):
            power = self.table[power, full]
        return p, power

    def _extension_walk(self, abelian: bool) -> tuple[list["Layer"], np.ndarray]:
        """Every subgroup of a p-group reached from 1 by steps H -> H<x>
        of index p, x outside H with x^p in H, in C_G(H) (``abelian``) or
        in N_G(H), as one ``Layer`` per order, in increasing order; and,
        in the full walk, its steps, which are the covers, as distinct
        rows (lower, upper) of canonical positions, sorted.  No closure is
        computed.  Each row carries C_G(H) as a packed mask (``abelian``)
        or the generators its path added, one per step; the layers,
        blocks and keys are described in the module docstring."""
        p, power = self._power_map
        t, n, e = self.table, self.order, self.identity
        full = np.arange(n)
        if abelian:
            # row x: C_G(x), packed; row y of ``conj``: s^-1 y s for each
            # generator s of G
            commute = np.packbits(t == t.T, axis=1)
            conj = self.conjugates(full, self.generating_set()).T
            start = np.packbits(np.ones((1, n), dtype=bool), axis=1)
        else:
            # row s: x^-1 s x for each x
            conj = np.ascontiguousarray(self.conjugates(full).T)
            start = np.empty((1, 0), dtype=np.intp)
        trivial = np.zeros((1, n), dtype=bool)
        trivial[0, e] = True
        pending = _Pending()
        pending.add(np.packbits(trivial, axis=1), start)
        layers, total, m = [], 0, 1
        steps = [(np.empty(0, dtype=np.intp),) * 2]
        while pending.rows:
            keys, carry, found = pending.resolve(total)
            pending = _Pending()
            steps += found
            normal = np.empty(len(keys), dtype=bool)
            centralizer = np.empty(len(keys), dtype=np.intp)
            # the conjugates gathered per row stay within BLOCK x |G|
            per_row = m * conj.shape[1] if abelian else carry.shape[1] * n
            rows = max(1, BLOCK * n // max(per_row, n))
            for b in range(0, len(keys), rows):
                block = slice(b, b + rows)
                h = np.unpackbits(keys[block], axis=1, count=n).view(bool)
                mem = np.nonzero(h)[1].reshape(len(h), m)
                at = np.arange(len(h))[:, None, None]
                if abelian:
                    within = np.unpackbits(carry[block], axis=1,
                                           count=n).view(bool)
                    normal[block] = h[at, conj[mem]].all(axis=(1, 2))
                    centralizer[block] = np.count_nonzero(within, axis=1)
                else:
                    within = h[at, conj[carry[block]]].all(axis=1)
                    normal[block] = within.all(axis=1)
                r, x = np.nonzero(within & ~h & h[:, power])
                keep = _coset_leaders(t, mem, r, x)
                r, x = r[keep], x[keep]
                for pairs, ext in _cyclic_extensions(t, h, mem, r, x, p):
                    parent, xx = b + r[pairs], x[pairs]
                    grown = (carry[parent] & commute[xx] if abelian else
                             np.column_stack([carry[parent], xx]))
                    pending.add(np.packbits(ext, axis=1), grown,
                                None if abelian else total + parent)
            layers.append(Layer(m, keys, normal,
                                centralizer if abelian else None))
            total += len(keys)
            m *= p
        code = np.sort(np.concatenate([lower * total + upper
                                       for lower, upper in steps]))
        covers = np.divmod(code[np.diff(code, prepend=-1) != 0], total)
        return layers, np.stack(covers, axis=1)

    def covers(self) -> np.ndarray:
        """The covering pairs H_i < H_j of the lattice of a p-group, as
        sorted rows (i, j) of positions in ``subgroups_all``: the steps of
        the walk.  Every maximal subgroup H of K is normal of index p, so
        K = H<x> for the least x of any coset Hx inside K, a step the walk
        takes from H."""
        return self._subgroups[1]

    def maximal_subgroups(self) -> list["SubgroupHandle"]:
        """The subgroups that G covers, in canonical order (p-groups
        only, as ``covers``)."""
        covers = self.covers()
        subs = self._subgroups[0]
        return [SubgroupHandle(self, subs[i])
                for i in covers[covers[:, 1] == len(subs) - 1, 0]]

    @cached_property
    def frattini_indices(self) -> tuple[int, ...]:
        """Phi(G) = G^p [G,G] of a p-group (Burnside's basis theorem), as
        the closure of the p-th powers and G'."""
        return self.closure_indices(
            np.concatenate([self._power_map[1], self.derived_indices]))

    def frattini(self) -> "SubgroupHandle":
        """The Frattini subgroup G^p [G,G] of a p-group, cross-checked
        against the intersection of the maximal subgroups (a mismatch is
        a fatal internal error)."""
        handle = SubgroupHandle(self, self.frattini_indices)
        inter = set(range(self.order)).intersection(
            *(h.members for h in self.maximal_subgroups()))
        if tuple(sorted(inter)) != handle.members:
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
        # row g is the coset gN; cosets are listed by least member
        coset = self.table[:, np.asarray(n_sub.members)]
        least = coset.min(axis=1)
        reps = self._distinct(least)
        cosets = [tuple(c) for c in np.sort(coset[reps], axis=1).tolist()]
        label = np.searchsorted(reps, least).astype(INDEX)
        table = label[self.table[np.ix_(reps, reps)]]
        return FiniteGroup(cosets, table,
                           name=f"{self.name}/N" if self.name else "")

    # -- generating sets and fingerprints -----------------------------------

    def generating_set(self) -> tuple[int, ...]:
        """Small deterministic generating set, each generator outside the
        subgroup of those before it, chosen greedily: an element that does
        not centralise the current generators if there is one (noncommuting
        relations pinned down early keep isomorphism backtracking shallow),
        then the highest element order, then the lowest index.  Computed
        once per group, at construction, for Light's test."""
        return self._generating_set

    @cached_property
    def _generating_set(self) -> tuple[int, ...]:
        """H = <gens> is kept as the mask ``inside``; <H, x> is H u Hx
        closed under right multiplication by the generators, so each
        layer of new elements is one gather of its members times them."""
        t = self.table
        orders = np.asarray(self.element_orders)
        gens: list[int] = []
        inside = np.zeros(self.order, dtype=bool)
        inside[self.identity] = True
        central = np.ones(self.order, dtype=bool)
        while not inside.all():
            pool = ~inside & ~central
            if not pool.any():
                pool = ~inside
            x = int(np.argmax(pool & (orders == orders[pool].max())))
            gens.append(x)
            central &= t[:, x] == t[x]
            new = t[np.flatnonzero(inside), x]
            while len(new):
                new = self._distinct(new[~inside[new]])
                inside[new] = True
                new = t[new[:, None], gens].ravel()
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
        return 2 if set(self.derived_indices) <= set(self.center_indices) else 3

    @cached_property
    def invariants(self) -> dict:
        """The fingerprint's fields that need no table but G's: all but
        the abelianization.  Equal invariants are necessary for
        isomorphism; ``isomorphic`` compares them."""
        return dict(order=self.order, exponent=self.exponent,
                    order_sequence=[list(t) for t in self.order_sequence],
                    center_order=len(self.center_indices),
                    derived_order=len(self.derived_indices),
                    nilpotency_class=self.nilpotency_class_bounded)

    def fingerprint(self) -> dict:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> dict:
        """Cheap isomorphism invariants, necessary (not sufficient) for
        isomorphism: the ``invariants`` and the abelianization, read on
        the table of G/G'."""
        ab_quotient = self.quotient(SubgroupHandle(self, self.derived_indices))
        fp = {**self.invariants,
              "abelianization": list(abelian_invariants(ab_quotient))}
        # the class last, where ``build --format text`` prints it
        fp["nilpotency_class"] = fp.pop("nilpotency_class")
        return fp

    def report(self) -> dict:
        fp = self.fingerprint()
        out = {
            "order": self.order,
            "exponent": self.exponent,
            "center_order": fp["center_order"],
            "derived_order": fp["derived_order"],
            "fingerprint": dict(fp),
            "order_sequence": [list(t) for t in self.order_sequence],
        }
        # the ``build`` goldens of orders above the default subgroup cap
        # pin the absence of this field
        if self.order <= DEFAULT_SUBGROUP_CAP:
            out["frattini_order"] = len(self.frattini_indices)
        return out

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"<{label} of order {self.order}>"


def extension_table(spec: CentralExtension) -> np.ndarray:
    """The index table of ``spec.elements()``, built by whole-array
    operations: the form as a q^(2n) x q^(2n) array of carrier values,
    mapped into the centre as the cocycle, then extended one block per
    pair (c1, c2) of centre elements, c1 + c2 + cocycle[v1, v2] over
    all v1, v2.  The table is ``INDEX`` from its allocation, each block
    narrowed from its int32 values as it is written.  A block depends on
    c1 + c2 alone, so it is formed, in place, once per centre element,
    and the form is dropped once the cocycle is read from it."""
    refuse_above_max_order(spec.order)
    r = spec.carrier
    add = np.asarray(r.add_table, dtype=np.int32)
    mul = np.asarray(r.mul_table, dtype=np.int32)
    # row v holds the 2n base-q digits of v, most significant first
    k = 2 * spec.n
    d = (np.arange(r.size ** k)[:, None]
         // r.size ** np.arange(k - 1, -1, -1)) % r.size
    form = np.zeros((len(d), len(d)), dtype=np.int32)
    for coeff, i, j in spec.terms:
        form = add[form, mul[coeff, mul[d[:, i, None], d[None, :, j]]]]
    cocycle = np.asarray(spec.centre_law.map, dtype=np.int32)[form]
    del form
    vadd = np.zeros((len(d), len(d)), dtype=np.int32)
    for i in range(k):
        vadd = vadd * r.size + add[d[:, i, None], d[None, :, i]]
    centre_add = np.asarray(spec.centre_law.add, dtype=np.int32)
    size, m = len(d), len(centre_add)
    # entry c size + v with the centre first in the key, v m + c with it
    # last
    scale, vadd = (size, vadd) if spec.centre_first else (1, vadd * m)
    table = np.empty((size * m, size * m), dtype=INDEX)
    # the block of (c1, c2) depends on c1 + c2 alone: one per sum
    for total in range(m):
        block = centre_add[total, cocycle]
        block *= scale
        block += vadd
        for c1, c2 in np.argwhere(centre_add == total).tolist():
            if spec.centre_first:
                table[c1 * size:(c1 + 1) * size,
                      c2 * size:(c2 + 1) * size] = block
            else:
                table[c1::m, c2::m] = block
    return table


@shared
def extension_group(spec: CentralExtension) -> FiniteGroup:
    """The group of a central-extension spec, its table built by
    ``extension_table``: one group per spec while a run is open."""
    return FiniteGroup(spec.elements(), extension_table(spec), name=spec.name)


class Layer(NamedTuple):
    """The subgroups of one order that a cyclic-extension walk found, in
    canonical order: row k of ``keys`` is the member mask of the k-th,
    packed by ``np.packbits``; ``normal`` flags the normal ones, and
    ``centralizer_orders`` gives |C_G(H)| (abelian walk only)."""

    order: int
    keys: np.ndarray
    normal: np.ndarray
    centralizer_orders: np.ndarray | None

    def members(self) -> np.ndarray:
        """Row k holds the sorted members of the k-th subgroup."""
        return np.nonzero(np.unpackbits(self.keys, axis=1))[1].reshape(
            len(self.keys), self.order)


def _member_tuples(layers: list[Layer]) -> list[tuple[int, ...]]:
    return [tuple(m) for layer in layers for m in layer.members().tolist()]


def _coset_leaders(t: np.ndarray, mem: np.ndarray, r: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Mask of the pairs (r, x) with x the least member of the coset Hx,
    H the members ``mem[r]``: tested on about sqrt|H| members first, then
    on all of H for the pairs left, at most BLOCK x |G| products at a
    time."""
    keep = np.ones(len(r), dtype=bool)
    stride = max(1, isqrt(mem.shape[1]))
    for sample in (mem[:, 1::stride], mem)[stride == 1:]:
        left = np.flatnonzero(keep)
        step = max(1, BLOCK * len(t) // sample.shape[1])
        for a in range(0, len(left), step):
            i = left[a:a + step]
            keep[i] = (t[sample[r[i]], x[i, None]] >= x[i, None]).all(axis=1)
    return keep


def _cyclic_extensions(t: np.ndarray, h: np.ndarray, mem: np.ndarray,
                       r: np.ndarray, x: np.ndarray, p: int):
    """H<x> for each pair (r, x), H the mask ``h[r]`` with the members
    ``mem[r]``, x normalising H with x^p in H, in chunks of BLOCK pairs:
    yields the chunk's slice of the pairs and the masks of H<x>, the
    union of H and the cosets H x^i for 0 < i < p, p - 1 gathers of the
    table."""
    for a in range(0, len(r), BLOCK):
        rr, xx = r[a:a + BLOCK], x[a:a + BLOCK]
        ext = h[rr]
        at, power = np.arange(len(rr))[:, None], xx
        for _ in range(p - 1):
            ext[at, t[mem[rr], power[:, None]]] = True
            power = t[power, xx]
        yield slice(a, a + BLOCK), ext


class _Pending:
    """The subgroups of one order that a walk has reached but not yet
    extended: ``rows`` maps each packed member mask, as bytes, to its
    row in the order found; ``carry`` holds what each row carries (the
    centraliser mask, or the path's generators, one per step, so one
    width per order); ``steps`` holds, for each batch of steps of the
    full walk, their lower positions and rows."""

    def __init__(self):
        self.rows: dict[bytes, int] = {}
        self.carry: list[np.ndarray] = []
        self.steps: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, keys: np.ndarray, carry: np.ndarray, lower=None) -> None:
        rows = self.rows
        before = len(rows)
        ids = np.array([rows.setdefault(k, len(rows)) for k in
                        keys.view(f"V{keys.shape[1]}").ravel().tolist()])
        # new rows are numbered from ``before`` in the order they first
        # occur, so each first occurrence raises the running maximum
        top = np.maximum.accumulate(np.append(before - 1, ids))
        fresh = top[1:] > top[:-1]
        self.carry.append(carry[fresh])
        if lower is not None:
            self.steps.append((lower, ids))

    def resolve(self, total: int):
        """(keys, carry, steps): the packed masks in canonical order
        (descending, as byte strings), their carried rows, and the steps
        as (lower, upper) positions, the rows numbered from ``total``."""
        keys = np.frombuffer(b"".join(self.rows), dtype=np.uint8).reshape(
            len(self.rows), -1)
        order = np.argsort(keys.view(f"V{keys.shape[1]}").ravel())[::-1]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return (keys[order], np.concatenate(self.carry)[order],
                [(lower, total + rank[ids]) for lower, ids in self.steps])


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of a parent FiniteGroup as a canonical sorted index set."""

    parent: FiniteGroup = field(compare=False)
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def is_abelian(self) -> bool:
        return self.parent.abelian_flags([self.members])[0]

    def is_cyclic(self) -> bool:
        return any(self.parent.element_orders[i] == self.order
                   for i in self.members)

    def is_normal(self) -> bool:
        """s^-1 H s lies in H for each s of the parent's generating set:
        the normaliser is a subgroup, so it holds them all iff it is G."""
        g = self.parent
        inside = np.zeros(g.order, dtype=bool)
        inside[list(self.members)] = True
        return bool(inside[g.conjugates(self.members, g.generating_set())].all())

    def as_group(self) -> FiniteGroup:
        """Materialize this subgroup as a standalone FiniteGroup sharing the
        parent's element keys."""
        remap = np.zeros(self.parent.order, dtype=INDEX)
        remap[list(self.members)] = np.arange(self.order)
        table = remap[self.parent.table[np.ix_(self.members, self.members)]]
        keys = [self.parent.elements[m] for m in self.members]
        return FiniteGroup(keys, table)

    def __le__(self, other: "SubgroupHandle") -> bool:
        """Containment: every member of this subgroup lies in ``other``."""
        return set(self.members).issubset(other.members)

    def intersect(self, other: "SubgroupHandle") -> "SubgroupHandle":
        return SubgroupHandle(self.parent, tuple(sorted(
            set(self.members) & set(other.members))))

    def product_set(self, other: "SubgroupHandle") -> tuple[int, ...]:
        """The setwise product HK as a sorted index tuple (not necessarily
        a subgroup)."""
        g = self.parent
        return tuple(g._distinct(
            g.table[np.ix_(self.members, other.members)]).tolist())

    def commutator_with(self, other: "SubgroupHandle") -> "SubgroupHandle":
        g = self.parent
        comms = g.commutators(self.members, other.members)
        return SubgroupHandle(g, g.closure_indices(comms))


def abelian_invariants(g: FiniteGroup) -> tuple[int, ...]:
    """Elementary divisors (prime-power cyclic factors, sorted) of a finite
    abelian group, recovered from its order statistics.  For each prime
    p, the elements of order dividing p^k number p^f(k) with f(k) the sum
    of min(lambda_i, k) over the parts lambda_i of the p-part, so
    f(k) - f(k-1) parts are at least k."""
    if not g.is_abelian:
        raise ValueError("abelian invariants require an abelian group")
    # (p, k) for each element of order p^k > 1
    powers = [pk for pk in map(prime_power, g.element_orders) if pk]
    out = []
    for p in {p for p, _ in powers}:
        exps = [k for q, k in powers if q == p]
        f = [(prime_power(1 + sum(e <= k for e in exps)) or (p, 0))[1]
             for k in range(max(exps) + 1)]
        at_least = [b - a for a, b in zip(f, f[1:])]
        out.extend(p ** sum(c > i for c in at_least)
                   for i in range(at_least[0]))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def _blocks(count: int):
    """Consecutive slices of range(count) of 1, 2, 4, ... up to BLOCK
    indices, for batched tests (the candidates of the isomorphism search;
    in the classification flags, the seed rows of ``closures``): a search
    that stops early does so after a few small batches, and a long run
    pays the per-call numpy overhead once per BLOCK items."""
    lo, size = 0, 1
    while lo < count:
        yield slice(lo, lo + size)
        lo, size = lo + size, min(2 * size, BLOCK)


def refuse_above_iso_cap(order: int) -> None:
    """The ``CapError`` of the isomorphism search for a group of this
    order above ``ISO_ORDER_CAP``; a caller that knows the order from a
    spec asks before any table is built."""
    if order > ISO_ORDER_CAP:
        raise CapError(f"isomorphism search capped at order {ISO_ORDER_CAP}")


def certify(g: FiniteGroup, h: FiniteGroup, phi) -> bool:
    """Whether the index array ``phi`` (phi[x] in H for each x in G) is an
    isomorphism: a bijection with phi(xs) = phi(x) phi(s) for every x
    and every s of ``g.generating_set()``, one gather of |G| x |S|.  The
    s that pass for every x are closed under products, so the law then
    holds on all of G."""
    phi = np.asarray(phi, dtype=np.intp)
    if not np.array_equal(np.sort(phi), np.arange(h.order)):
        return False
    s = np.array(g.generating_set(), dtype=np.intp)
    return bool((phi[g.table[:, s]] == h.table[phi[:, None], phi[s]]).all())


def isomorphic(g: FiniteGroup, h: FiniteGroup):
    """Decide G ≅ H; returns (True, witness) with witness mapping element
    keys of G to element keys of H, or (False, None).  No table is built.

    Strategy: the identity of indices is tried first by ``certify`` (equal
    laws laid out alike give equal tables) and is the witness when it
    passes; then the pre-filter compares the ``invariants``; then
    depth-first backtracking over
    images of a small generating set of G, pruned by element order and
    conjugacy-class size; the first generator image only ranges over
    class representatives (composing with an inner automorphism of H
    loses no generality), and the image c of a later generator x must
    give each commutator [image of gens[j], c] the order of [gens[j], x]
    for the earlier j, as an isomorphism does.  The candidates left for
    x are checked in the batches of ``_blocks``: for a batch, one K x |G|
    matrix holds the maps rebuilt along the Schreier vector of the walk
    of the prefix ending at x, a breadth-first layer per gather; one
    gather checks that each preserves every product with a generator,
    and sorted rows that it is injective.  The search descends into the
    passing candidates in increasing order, as a one-at-a-time search
    would, so the witness is the same: the first map of the depth-first
    search.
    """
    refuse_above_iso_cap(max(g.order, h.order))
    if g.order != h.order:
        return False, None
    if certify(g, h, np.arange(g.order)):
        return True, dict(zip(g.elements, h.elements))
    if g.invariants != h.invariants:
        return False, None

    gens = np.array(g.generating_set())
    walks = []
    for i in range(1, len(gens) + 1):
        walk = g._walk(gens[:i])
        # the table entries member * generator, for the homomorphism check
        walks.append((*walk, g.table[np.ix_(walk[0], gens[:i])]))
    g_orders, h_orders = np.array(g.element_orders), np.array(h.element_orders)
    g_class, h_class = np.array(g.class_size_of), np.array(h.class_size_of)
    g_comm = g_orders[g.commutators(gens, gens)]
    h_reps = np.zeros(h.order, dtype=bool)
    h_reps[[cls[0] for cls in h.conjugacy_classes]] = True

    def candidates(images: list[int]) -> np.ndarray:
        i = len(images)
        x = gens[i]
        fits = (h_orders == g_orders[x]) & (h_class == g_class[x])
        cand = np.flatnonzero(fits & h_reps if i == 0 else fits)
        comm = h_orders[h.commutators(images, cand)]
        return cand[(comm == g_comm[:i, i, None]).all(axis=0)]

    def check(images: list[int], batch: np.ndarray):
        """Rebuild the maps on <gens[:len(images) + 1]> sending the last
        generator to each member of ``batch``; return the mask of those
        that are consistent and injective, and the maps as rows (read on
        the members only)."""
        members, parent, pos, layers, steps = walks[len(images)]
        img = np.empty((len(batch), len(images) + 1), dtype=INDEX)
        img[:, :-1] = images
        img[:, -1] = batch
        phi = np.empty((len(batch), g.order), dtype=INDEX)
        phi[:, g.identity] = h.identity
        for s in layers:
            phi[:, members[s]] = h.table[phi[:, parent[s]], img[:, pos[s]]]
        image = phi[:, members]
        # phi(x * gen) == phi(x) * image of gen, for every member x and
        # generator
        ok = (phi[:, steps] == h.table[image[:, :, None], img[:, None, :]]
              ).all(axis=(1, 2))
        # sorted, so no uint16 difference is negative and none wraps
        ok[ok] = (np.diff(np.sort(image[ok], axis=1), axis=1) != 0).all(axis=1)
        return ok, phi

    def passing(images: list[int]):
        """Each candidate image of the next generator that extends
        ``images`` consistently and injectively, in increasing order,
        with its map."""
        cand = candidates(images)
        for block in _blocks(len(cand)):
            ok, phi = check(images, cand[block])
            yield from zip(cand[block][ok].tolist(), phi[ok])

    # depth first over the images of gens[0], gens[1], ...: stack[i]
    # yields the images of gens[i] that extend images[:i]
    images: list[int] = []
    stack = [passing([])]
    while stack:
        del images[len(stack) - 1:]
        found = next(stack[-1], None)
        if found is None:
            stack.pop()
            continue
        images.append(found[0])
        if len(images) == len(gens):
            break
        stack.append(passing(images.copy()))
    else:
        return False, None
    members, phi = walks[-1][0], found[1]
    witness = {g.elements[a]: h.elements[b]
               for a, b in zip(members.tolist(), phi[members].tolist())}
    return True, witness
