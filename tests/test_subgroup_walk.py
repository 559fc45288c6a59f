"""The cyclic-extension walks of ``FiniteGroup`` against the reference
enumerator, a breadth-first closure over single-element extensions which
needs no solvability and no normaliser, also with blocks of a few
entries; the census of groups that are not p-groups against a
centraliser and ``is_normal`` per subgroup; the walk of a generated
subgroup with its Schreier vector against a scalar queue and a set
closure; the batched closures against one walk per row; the centre,
the nilpotency bound and normality, read on a generating set, against
their definitions; the generating set grown from the last subgroup
against one walk per pick; and the batched isomorphism search against
a search that checks one candidate at a time, with no commutator
filter."""

import itertools
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_oracle import tabulate
from paulidecomp.algebra import Carrier, field_make, prime_power
from paulidecomp import groupcore
from paulidecomp.census import abelian_census, hasse
from paulidecomp.groupcore import (BLOCK, FiniteGroup, GroupStructureError,
                                   isomorphic)
from paulidecomp.heisenberg import (dihedral8, extraspecial_e1,
                                    extraspecial_e2, heis_group, heis_spec,
                                    quaternion8)
from paulidecomp.pauli import pauli_group, pauli_spec
from test_census import _strictly_above
from test_groupcore import LOOP5, _assert_isomorphism, _closure
from test_products import _dihedral, _direct_product


def bfs_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup as a sorted member tuple, in canonical (order,
    members) order: close H u {x} for every found H and every x outside
    H, until nothing new appears."""
    trivial = (g.identity,)
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for members in frontier:
            mem_set = set(members)
            for x in range(g.order):
                if x in mem_set:
                    continue
                ext = g.closure_indices(members + (x,))
                if ext not in found:
                    found.add(ext)
                    new_frontier.append(ext)
        frontier = new_frontier
    return sorted(found, key=lambda m: (len(m), m))


def _normalizer_mask(g: FiniteGroup, members) -> np.ndarray:
    """N_G(H) by its definition: the x with x^-1 H x inside H."""
    inside = np.zeros(g.order, dtype=bool)
    inside[list(members)] = True
    return inside[g.conjugates(members)].all(axis=1)


def _abelian(g: FiniteGroup, members) -> bool:
    sub = g.table[np.ix_(members, members)]
    return bool((sub == sub.T).all())


def _permutation_group(perms) -> FiniteGroup:
    """The permutations (tuples of images) under composition, applying
    the left factor first."""
    return FiniteGroup(perms, tabulate(perms, lambda a, b: tuple(b[i] for i in a)))


def _even(perm) -> bool:
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(range(n), tabulate(range(n), lambda a, b: (a + b) % n))


def dihedral(n: int) -> FiniteGroup:
    """The symmetries of a regular n-gon, of order 2n."""
    rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    reflections = [tuple((k - i) % n for i in range(n)) for k in range(n)]
    return _permutation_group(sorted(rotations + reflections))


GROUPS = {
    "D8": dihedral8,
    "Q8": quaternion8,
    "P(1,2)": lambda: pauli_group(pauli_spec(2, 1, 1)),
    "P(1,3)": lambda: pauli_group(pauli_spec(3, 1, 1)),
    "H(GF(3))": lambda: heis_group(heis_spec(field_make(3, 1))),
    "Z12": lambda: cyclic(12),
    "Z4xZ2": lambda: FiniteGroup(range(8), tabulate(
        range(8), lambda a, b: (a + b) % 4 + (a ^ b) // 4 * 4)),
    "D12": lambda: dihedral(6),
    "S4": lambda: _permutation_group(list(itertools.permutations(range(4)))),
}


@cache
def _group(name: str) -> FiniteGroup:
    return GROUPS[name]() if name in GROUPS else alternating5()


def _relabel(g: FiniteGroup, perm) -> FiniteGroup:
    """The same group with element i renamed perm[i]."""
    p = np.asarray(perm)
    table = np.empty_like(g.table)
    table[np.ix_(p, p)] = p[g.table]
    return FiniteGroup(range(g.order), table)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_walks_match_oracle_on_relabelled_tables(name, data):
    g = _group(name)
    perm = data.draw(st.permutations(range(g.order)))
    h = _relabel(g, perm)
    oracle = bfs_subgroups(h)
    assert [k.members for k in h.subgroups_all()] == oracle
    assert [k.members for k in h.abelian_subgroups()] == [
        m for m in oracle if _abelian(h, m)]


def alternating5() -> FiniteGroup:
    return _permutation_group(
        [p for p in itertools.permutations(range(5)) if _even(p)])


def test_non_solvable_group_raises_and_abelian_walk_completes():
    a5 = alternating5()
    assert a5.order == 60
    with pytest.raises(GroupStructureError, match="not solvable"):
        a5.subgroups_all()
    with pytest.raises(GroupStructureError, match="not solvable"):
        a5.maximal_subgroups()
    abelian = [m for m in bfs_subgroups(a5) if _abelian(a5, m)]
    assert [k.members for k in a5.abelian_subgroups()] == abelian
    census = abelian_census(a5)
    # 15 involutions, 10 subgroups of order 3, 5 Klein four-groups and 6
    # of order 5
    assert census.c_ab == len(abelian) - 1 == 36
    assert census.by_order == {2: 15, 3: 10, 4: 5, 5: 6}
    assert census.normal_count == 0


def test_lattice_questions_need_a_p_group():
    """S4 (order 24) is solvable, so the walk enumerates its lattice; its
    covers are read only for p-groups, so maximal subgroups and the Hasse
    diagram are refused.  A5 is refused first for not being solvable."""
    s4 = _group("S4")
    assert [k.members for k in s4.subgroups_all()] == bfs_subgroups(s4)
    with pytest.raises(ValueError, match="p-groups"):
        s4.maximal_subgroups()
    with pytest.raises(ValueError, match="p-groups"):
        hasse(s4)
    with pytest.raises(GroupStructureError, match="not solvable"):
        hasse(alternating5())


def test_walks_compute_no_closure(monkeypatch):
    def refuse(self, seed):
        raise AssertionError("closure_indices called during enumeration")

    g = pauli_group(pauli_spec(2, 1, 2))
    monkeypatch.setattr(FiniteGroup, "closure_indices", refuse)
    assert len(g.subgroups_all()) == 465
    assert abelian_census(g).c_ab == 212


def _queue_walk(t, e, gens):
    """The walk of <gens> as a scalar queue: each member, taken in turn,
    times each generator in turn; a product not seen before is appended
    with its parent and generator position."""
    members, parent, pos = [e], [e], [-1]
    seen = {e}
    for x in members:
        for k, s in enumerate(gens):
            y = t[x][s]
            if y not in seen:
                seen.add(y)
                members.append(y)
                parent.append(x)
                pos.append(k)
    return members, parent, pos


@pytest.mark.parametrize("name", [*GROUPS, "A5"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_walk_and_generating_set_on_relabelled_tables(name, data):
    g = _group(name)
    h = _relabel(g, data.draw(st.permutations(range(g.order))))
    gens = data.draw(st.lists(st.integers(0, h.order - 1), max_size=4))
    t = h.table.tolist()
    members, parent, pos = h._walk(gens)
    assert [a.tolist() for a in (members, parent, pos)] == \
        list(_queue_walk(t, h.identity, gens))
    assert h.closure_indices(gens) == _closure(t, h.identity, gens)
    # the Schreier vector: each member after the identity is its parent
    # times a generator, and every parent is reached before its child
    assert members[0] == h.identity
    step = np.array(gens, dtype=int)[pos[1:]]
    assert (members[1:] == h.table[parent[1:], step]).all()
    rank = np.empty(h.order, dtype=int)
    rank[members] = np.arange(len(members))
    assert (rank[parent[1:]] < np.arange(1, len(members))).all()
    # each generator lies outside the subgroup of those before it, and
    # the grown subgroups pick what walks from the identity pick
    chosen = h.generating_set()
    assert chosen == _walk_generating_set(h)
    assert h.closure_indices(chosen) == tuple(range(h.order))
    for i, x in enumerate(chosen):
        assert x not in h.closure_indices(chosen[:i])


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_isomorphism_witness_on_relabelled_tables(name, data):
    # the relabellings of P(1,2) include tables where the first injective
    # map tried along the Schreier vector is not a homomorphism; in Z4xZ2
    # a map onto <a> that kills b passes every filter and the
    # homomorphism check, and only injectivity rejects it
    g = _group(name)
    a = _relabel(g, data.draw(st.permutations(range(g.order))))
    b = _relabel(g, data.draw(st.permutations(range(g.order))))
    with pytest.MonkeyPatch.context() as monkeypatch:
        phi = _assert_search_matches_oracle(a, b, monkeypatch)
    _assert_isomorphism(a, b, phi)


@pytest.mark.parametrize("name", [*GROUPS, "A5"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_batched_closures_match_walks_on_relabelled_tables(name, data):
    # A5 is not solvable.  Row k keeps its first length[k] seeds and is
    # padded with the identity; up to BLOCK // width + 8 rows span
    # several blocks of the closure.
    g = _group(name)
    h = _relabel(g, data.draw(st.permutations(range(g.order))))
    width = data.draw(st.integers(1, 4))
    count = data.draw(st.integers(1, BLOCK // width + 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    seeds = rng.integers(0, h.order, size=(count, width))
    length = rng.integers(0, width + 1, size=count)
    seeds[np.arange(width) >= length[:, None]] = h.identity
    closed = h.closures(seeds)
    assert closed.shape == (count, h.order)
    assert [tuple(np.flatnonzero(c).tolist()) for c in closed] == [
        h.closure_indices(r[:k]) for r, k in zip(seeds, length)]


@cache
def _oracle_subgroups(name: str) -> list[tuple[int, ...]]:
    return bfs_subgroups(_group(name))


@pytest.mark.parametrize("name", [*GROUPS, "A5"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generator_facts_match_definitions_on_relabelled_tables(name, data):
    # the centre, the nilpotency bound and normality are read on the
    # generating set; each is compared with its definition over all of G
    g = _group(name)
    perm = np.array(data.draw(st.permutations(range(g.order))))
    h = _relabel(g, perm)
    t = h.table
    assert h.center_indices == tuple(
        np.flatnonzero((t == t.T).all(axis=1)).tolist())
    commutes = (h.commutators(h.derived_indices, np.arange(h.order))
                == h.identity).all()
    assert h.nilpotency_class_bounded == (
        0 if h.order == 1 else 1 if h.is_abelian else 2 if commutes else 3)
    for members in _oracle_subgroups(name):
        k = h.subgroup(perm[list(members)])
        assert k.is_normal() == _normalizer_mask(h, k.members).all()


def _relabelled_oracle(name: str, perm) -> list[tuple[int, ...]]:
    """The oracle's subgroups of a group renamed by ``perm``, in
    canonical order."""
    renamed = (tuple(sorted(perm[i] for i in m))
               for m in _oracle_subgroups(name))
    return sorted(renamed, key=lambda m: (len(m), m))


def _layer_rows(layers, field: str) -> list:
    return [v for layer in layers for v in getattr(layer, field).tolist()]


@pytest.mark.parametrize("name", [*GROUPS, "A5"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_walks_across_block_boundaries(name, data):
    # with BLOCK at a few entries the rows of a layer, the coset leaders
    # and the extension rows each span many blocks
    g = _group(name)
    perm = data.draw(st.permutations(range(g.order)))
    h = _relabel(g, perm)
    oracle = _relabelled_oracle(name, perm)
    abelian = [m for m in oracle if _abelian(h, m)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(groupcore, "BLOCK", data.draw(st.integers(1, 8)))
        layers = h.abelian_layers()
        assert [k.members for k in h.abelian_subgroups()] == abelian
        if name == "A5":
            with pytest.raises(GroupStructureError, match="not solvable"):
                h.subgroups_all()
        else:
            assert [k.members for k in h.subgroups_all()] == oracle
    assert [tuple(m) for layer in layers
            for m in layer.members().tolist()] == abelian
    assert _layer_rows(layers, "normal") == [
        bool(_normalizer_mask(h, m).all()) for m in abelian]
    assert _layer_rows(layers, "centralizer_orders") == [
        int(h.centralizer_mask(np.array(m)).sum()) for m in abelian]
    if prime_power(h.order) is None:
        return
    # the covers, by containment: H < K with nothing strictly between
    above = _strictly_above([set(m) for m in oracle])
    covers = sorted((i, j) for i, up in enumerate(above)
                    for j in up - set().union(*(above[k] for k in up)))
    assert h.covers().tolist() == [list(c) for c in covers]


@pytest.mark.parametrize("name", ["D12", "S4", "Z12", "A5"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_census_against_definitions_beyond_p_groups(name, data):
    # maximality and normality as the census reads them from the layers,
    # against centralizer and is_normal per subgroup and against
    # containment among the abelian subgroups
    g = _group(name)
    h = _relabel(g, data.draw(st.permutations(range(g.order))))
    subs = h.abelian_subgroups()
    layers = h.abelian_layers()
    normal = [k.is_normal() for k in subs]
    centralizer = [h.centralizer(k.members).order for k in subs]
    assert _layer_rows(layers, "normal") == normal
    assert _layer_rows(layers, "centralizer_orders") == centralizer
    above = _strictly_above([set(k.members) for k in subs])
    rest = list(zip(subs, normal, centralizer, above))[1:]
    census = abelian_census(h)
    assert census.maximal_abelian_orders == sorted(
        k.order for k, _, c, _ in rest if c == k.order) == sorted(
        k.order for k, _, _, up in rest if not up)
    assert census.by_order_normality == dict(
        Counter((k.order, f) for k, f, _, _ in rest))
    assert census.normal_count == sum(f for _, f, _, _ in rest)
    assert census.nonnormal_count == len(rest) - census.normal_count


def _walk_generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """The greedy generating set with <gens> walked from the identity
    after every pick."""
    orders = np.asarray(g.element_orders)
    gens: list[int] = []
    inside = np.zeros(g.order, dtype=bool)
    inside[g.identity] = True
    while not inside.all():
        pool = ~inside & ~g.centralizer_mask(np.array(gens, np.intp))
        if not pool.any():
            pool = ~inside
        gens.append(int(np.argmax(pool & (orders == orders[pool].max()))))
        inside[g._walk(gens)[0]] = True
    return tuple(gens)


def test_grown_generating_set_matches_walks_on_magmas(monkeypatch):
    # Light's test reads the generating set before associativity is
    # known: the grown set must match the walk on tables that are not
    # groups.  LOOP5 x Z_12 is a loop; Z_2^6 with one intercalate swapped
    # is a Latin square with identity 0.
    monkeypatch.setattr(FiniteGroup, "_verify_associativity",
                        lambda self: None)
    z = np.arange(12)
    loop60 = (LOOP5[:, None, :, None] * 12
              + (z[:, None] + z[None, :])[None, :, None, :] % 12)
    x = np.arange(64)
    swapped = x[:, None] ^ x[None, :]
    swapped[[1, 1, 2, 2], [4, 7, 4, 7]] = swapped[[1, 1, 2, 2], [7, 4, 7, 4]]
    for table in (LOOP5, loop60.reshape(60, 60), swapped):
        m = FiniteGroup(range(len(table)), table)
        assert m.generating_set() == _walk_generating_set(m)


def _one_candidate_search(g: FiniteGroup, h: FiniteGroup):
    """The backtrack search over images of ``g.generating_set()``, pruned
    by element order and class size only, with the first image among
    class representatives, checking one candidate tuple at a time: the
    map rebuilt along the Schreier vector of the prefix's walk must
    preserve every product with a generator and be injective.  Returns
    (True, witness) for the first tuple that passes in increasing
    depth-first order, or (False, None); no fingerprint is read."""
    gens = np.array(g.generating_set())
    walks = [g._walk(gens[:i]) for i in range(1, len(gens) + 1)]
    g_orders, h_orders = np.array(g.element_orders), np.array(h.element_orders)
    g_class, h_class = np.array(g.class_size_of), np.array(h.class_size_of)
    h_reps = {cls[0] for cls in h.conjugacy_classes}

    def candidates(pos):
        x = gens[pos]
        return [c for c in range(h.order)
                if h_orders[c] == g_orders[x] and h_class[c] == g_class[x]
                and (pos or c in h_reps)]

    def check(images):
        members, parent, pos = walks[len(images) - 1]
        phi = {g.identity: h.identity}
        for x, par, k in zip(members[1:].tolist(), parent[1:].tolist(),
                             pos[1:].tolist()):
            phi[x] = h.mul(phi[par], images[k])
        for x in members.tolist():
            for k, s in enumerate(gens[:len(images)].tolist()):
                if phi[g.mul(x, s)] != h.mul(phi[x], images[k]):
                    return None
        return phi if len(set(phi.values())) == len(phi) else None

    def search(images):
        if len(images) == len(gens):
            return check(images)
        for c in candidates(len(images)):
            if check(images + [c]) is not None:
                phi = search(images + [c])
                if phi is not None:
                    return phi
        return None

    phi = search([])
    if phi is None:
        return False, None
    return True, {g.elements[a]: h.elements[b] for a, b in phi.items()}


def _assert_search_matches_oracle(g, h, monkeypatch):
    """The same answer and witness, with the members in the order of the
    walk, under the default batch schedule, one candidate per batch and
    one batch of all candidates; returns the witness."""
    expected = _one_candidate_search(g, h)
    for blocks in (groupcore._blocks,
                   lambda n: (slice(k, k + 1) for k in range(n)),
                   lambda n: [slice(0, n)]):
        with monkeypatch.context() as patch:
            patch.setattr(groupcore, "_blocks", blocks)
            ok, phi = isomorphic(g, h)
        assert (ok, phi) == expected
        assert phi is None or list(phi.items()) == list(expected[1].items())
    return phi


@pytest.mark.parametrize("make_g,make_h", [
    (lambda: pauli_group(pauli_spec(3, 1, 1)),
     lambda: heis_group(heis_spec(field_make(3, 1)))),
    (lambda: pauli_group(pauli_spec(3, 1, 2)),
     lambda: heis_group(heis_spec(Carrier(3, 1, False), 2))),
], ids=["P(1,3)-H(GF(3))", "P(2,3)-H(Z3^2)"])
def test_isomorphism_search_matches_oracle_on_families(make_g, make_h,
                                                      monkeypatch):
    g, h = make_g(), make_h()
    _assert_search_matches_oracle(g, h, monkeypatch)
    _assert_search_matches_oracle(h, g, monkeypatch)


def _z4_by_z4() -> FiniteGroup:
    """<a, b | a^4 = b^4 = 1, b^-1 a b = a^-1>, a^i b^j as (i, j)."""
    keys = [(i, j) for i in range(4) for j in range(4)]
    return FiniteGroup(keys, tabulate(keys, lambda x, y: (
        (x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4)))


@pytest.mark.parametrize("make_g,make_h", [
    (dihedral8, quaternion8),
    (lambda: extraspecial_e1(3), lambda: extraspecial_e2(3)),
    (lambda: _direct_product(quaternion8(), _dihedral(1)), _z4_by_z4),
], ids=["D8-Q8", "E1(3)-E2(3)", "Q8xZ2-Z4:Z4"])
def test_search_rejects_without_the_fingerprint(make_g, make_h, monkeypatch):
    # with every fingerprint equal, the search itself must find no map.
    # Q8 x Z2 and Z4 : Z4 share element orders, class sizes and the
    # orders of commutators (they differ in G/G'), so only the
    # homomorphism check rejects the injective maps tried
    monkeypatch.setattr(FiniteGroup, "fingerprint", lambda self: None)
    g, h = make_g(), make_h()
    assert isomorphic(g, h) == (False, None)
    assert isomorphic(h, g) == (False, None)
    assert _one_candidate_search(g, h) == (False, None)
