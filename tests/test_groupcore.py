import gc
import itertools
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_oracle import tabulate
from paulidecomp.claims import run_suite
from paulidecomp.groupcore import (CapError, FiniteGroup, GroupStructureError,
                                   abelian_invariants, isomorphic)
from paulidecomp.algebra import field_make
from paulidecomp.heisenberg import (dihedral8, extraspecial_e1,
                                    extraspecial_e2, heis_group, heis_spec,
                                    quaternion8)
from paulidecomp.pauli import pauli_group, pauli_spec


def cyclic(n):
    return FiniteGroup(range(n), tabulate(range(n), lambda a, b: (a + b) % n),
                       name=f"Z{n}")


def test_cyclic_basics():
    z6 = cyclic(6)
    assert z6.order == 6
    assert z6.exponent == 6
    assert z6.center().order == 6
    assert z6.derived_subgroup().order == 1
    # primary decomposition form
    assert abelian_invariants(z6) == (2, 3)


def test_bad_table_rejected():
    # not a Latin square: constant row
    with pytest.raises(GroupStructureError):
        FiniteGroup([0, 1], tabulate([0, 1], lambda a, b: 0))


def test_table_without_inverses_rejected():
    # max is associative with identity 0, but only 0 has an inverse
    with pytest.raises(GroupStructureError):
        FiniteGroup(range(4), tabulate(range(4), max))


def test_wrong_table_shape_rejected():
    with pytest.raises(GroupStructureError):
        FiniteGroup(range(3), np.zeros((2, 2), dtype=np.int32))


# A Latin square with identity 0 that is not associative: every element is
# its own inverse, which no group of order 5 allows.
LOOP5 = np.array([[int(c) for c in row]
                  for row in ("01234", "10342", "24013", "32401", "43120")])


def test_light_rejects_loop5():
    with pytest.raises(GroupStructureError, match="not associative"):
        FiniteGroup(range(5), LOOP5)


def test_light_rejects_loop5_times_z60():
    # order 300, above the order where associativity used to be sampled
    z = np.arange(60)
    table = (LOOP5[:, None, :, None] * 60
             + (z[:, None] + z[None, :])[None, :, None, :] % 60)
    with pytest.raises(GroupStructureError, match="not associative"):
        FiniteGroup(range(300), table.reshape(300, 300))


def test_light_rejects_loop5_times_z256_past_the_first_block():
    # with the loop index major, the first block of 256 rows is 0 x Z_256,
    # whose every row associates with everything: each failing triple
    # (xy)s != x(ys) has its x in a later block
    z = np.arange(256)
    table = (LOOP5[:, None, :, None] * 256
             + (z[:, None] + z[None, :])[None, :, None, :] % 256)
    with pytest.raises(GroupStructureError, match="not associative"):
        FiniteGroup(range(1280), table.reshape(1280, 1280))


def _z2_10_with_intercalate_swapped(a, d, b, c):
    """Z_2^10 with one 2x2 subsquare swapped: still a Latin square with
    identity 0; only O(n) of the n^3 triples fail associativity."""
    x = np.arange(1024)
    table = x[:, None] ^ x[None, :]
    assert a ^ b == d ^ c and a ^ c == d ^ b
    table[[a, a, d, d], [b, c, b, c]] = table[[a, a, d, d], [c, b, c, b]]
    return table


def test_light_rejects_single_intercalate_swap():
    with pytest.raises(GroupStructureError, match="not associative"):
        FiniteGroup(range(1024), _z2_10_with_intercalate_swapped(1, 2, 4, 7))


def test_light_rejects_intercalate_swap_in_a_later_block():
    # the swapped entries lie in rows past the first block of 256
    table = _z2_10_with_intercalate_swapped(1000, 1003, 4, 7)
    with pytest.raises(GroupStructureError, match="not associative"):
        FiniteGroup(range(1024), table)


@pytest.mark.parametrize("axis", [0, 1])
def test_swap_in_the_last_block_is_not_associative(axis):
    # swapping two entries of row 5 of Z_2^10 keeps the identity and every
    # inverse and repeats a value in columns 1000 and 1001, both in the
    # last block of 256; the transpose does the same to rows.  No Latin
    # check runs: Light's test rejects both tables.
    x = np.arange(1024)
    table = x[:, None] ^ x[None, :]
    table[5, [1000, 1001]] = table[5, [1001, 1000]]
    with pytest.raises(GroupStructureError, match="not associative"):
        FiniteGroup(range(1024), table if axis else table.T)


def test_empty_table_rejected():
    with pytest.raises(GroupStructureError, match="no identity"):
        FiniteGroup([], np.zeros((0, 0), np.int32))


@pytest.mark.parametrize("entry", [-1, 3, 4, 2**31 - 1])
def test_entries_outside_the_range_rejected(entry):
    # Z_3 with one entry replaced: it neither indexes nor wraps
    table = (np.arange(3)[:, None] + np.arange(3)) % 3
    table[1, 2] = entry
    with pytest.raises(GroupStructureError, match=r"lie in \[0, 3\)"):
        FiniteGroup(range(3), table)


def test_element_without_finite_order_rejected():
    # identity 0, 1 and 2 inverse to each other, but 1 * 1 = 1: the powers
    # of 1, which Light's test reads before associativity is known, never
    # reach 0
    with pytest.raises(GroupStructureError, match="no finite order"):
        FiniteGroup(range(3), [[0, 1, 2], [1, 1, 0], [2, 0, 1]])


def _is_group(t: np.ndarray) -> bool:
    """The group axioms by brute force: an identity, two-sided inverses
    and (xy)z = x(yz) for all n^3 triples."""
    full = np.arange(len(t))
    ident = [e for e in full if (t[e] == full).all() and (t[:, e] == full).all()]
    if not ident:
        return False
    inverses = (t == ident[0]) & (t.T == ident[0])
    return bool(inverses.any(axis=1).all() and (t[t] == t[:, t]).all())


def _accepts(t: np.ndarray) -> bool:
    try:
        FiniteGroup(range(len(t)), t)
    except GroupStructureError:
        return False
    return True


def test_axioms_decide_every_table_of_order_at_most_3():
    verdicts = []
    for n in (1, 2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            t = np.array(entries).reshape(n, n)
            assert _accepts(t) == _is_group(t), t
            verdicts.append(_is_group(t))
    # Z_1, Z_2 on two labellings, Z_3 on three
    assert len(verdicts) == 1 + 16 + 19683 and sum(verdicts) == 6


@st.composite
def _tables_with_identity_and_inverses(draw):
    """A table of order 4-8 with an identity row and column and two-sided
    inverses forced along an involution: a group's table relabelled, with
    its own inverses or random ones, or random entries with random
    inverses; with up to three entries redrawn before the forcing."""
    n = draw(st.integers(4, 8))
    perm = np.array(draw(st.permutations(range(n))))
    x = np.arange(n)
    base, inv = (x[:, None] + x) % n, -x % n
    if n in (4, 8) and draw(st.booleans()):
        base, inv = x[:, None] ^ x, x
    t = np.empty((n, n), dtype=np.int64)
    t[np.ix_(perm, perm)] = perm[base]
    random_entries = draw(st.booleans())
    if random_entries:
        t = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
    if random_entries or draw(st.booleans()):
        # a random involution fixing 0: pair up the other labels
        inv, rest = x.copy(), list(range(1, n))
        while rest:
            a = rest.pop(0)
            if rest and draw(st.booleans()):
                b = rest.pop(draw(st.integers(0, len(rest) - 1)))
                inv[a], inv[b] = b, a
    for _ in range(draw(st.integers(0, 3))):
        t[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = \
            draw(st.integers(0, n - 1))
    e = perm[0]
    t[e], t[:, e] = x, x
    t[perm, perm[inv]] = e
    t[perm[inv], perm] = e
    return t


@settings(max_examples=300, deadline=None)
@given(t=_tables_with_identity_and_inverses())
def test_axioms_decide_tables_of_order_4_to_8(t):
    assert _accepts(t) == _is_group(t)


def test_d8_invariants():
    d8 = dihedral8()
    assert d8.order == 8
    assert d8.center().order == 2
    assert d8.derived_subgroup().order == 2
    assert d8.frattini().order == 2
    assert sorted(d8.element_orders) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert abelian_invariants(d8.quotient(d8.center())) == (2, 2)


def test_subgroup_enumeration_d8():
    d8 = dihedral8()
    subs = d8.subgroups_all()
    assert len(subs) == 10
    assert sorted(h.order for h in subs) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]
    assert sum(1 for h in subs if h.is_normal()) == 6


def test_subgroup_handle_operations():
    d8 = dihedral8()
    subs = d8.subgroups_all()
    maxes = [h for h in subs if h.order == 4]
    a, b = maxes[0], maxes[1]
    inter = a.intersect(b)
    assert inter.order == 2
    assert set(a.product_set(b)) == set(range(8))
    assert a.commutator_with(b).order <= 2


def _assert_isomorphism(g, h, phi):
    """``phi`` maps the keys of G one to one onto the keys of H and
    preserves the product of every pair."""
    assert len(phi) == g.order and set(phi) == set(g.elements)
    assert set(phi.values()) == set(h.elements)
    image = np.array([h.index[phi[x]] for x in g.elements])
    assert (image[g.table] == h.table[np.ix_(image, image)]).all()


def _relabelled_d8():
    d8 = dihedral8()
    perm = [3, 1, 4, 0, 6, 2, 7, 5]
    table = {(perm[i], perm[j]): perm[d8.mul(i, j)]
             for i in range(8) for j in range(8)}
    return FiniteGroup(range(8), tabulate(range(8), lambda a, b: table[(a, b)]))


@pytest.mark.parametrize("make_g,make_h", [
    (dihedral8, _relabelled_d8),
    (lambda: pauli_group(pauli_spec(3, 1, 1)),
     lambda: heis_group(heis_spec(field_make(3, 1)))),
    (lambda: pauli_group(pauli_spec(3, 1, 1)), lambda: extraspecial_e1(3)),
], ids=["D8-relabelled", "P(1,3)-H(GF(3))", "P(1,3)-E1(3)"])
def test_isomorphism_witness(make_g, make_h):
    g, h = make_g(), make_h()
    ok, phi = isomorphic(g, h)
    assert ok
    _assert_isomorphism(g, h, phi)


def test_isomorphism_oracle():
    # rejections: equal orders, different groups
    assert isomorphic(dihedral8(), quaternion8()) == (False, None)
    assert isomorphic(extraspecial_e1(3), extraspecial_e2(3)) == (False, None)


def test_quotient_and_normal_closure():
    q8 = quaternion8()
    q = q8.quotient(q8.center())
    assert abelian_invariants(q) == (2, 2)
    # the normal closure of any non-central element of q8 has order >= 4
    non_central = [i for i in range(8) if i not in q8.center().members][0]
    assert q8.normal_closure([non_central]).order >= 4


def test_report_shape():
    d8 = dihedral8()
    rep = d8.report()
    for key in ("order", "exponent", "center_order", "derived_order",
                "frattini_order", "fingerprint", "order_sequence"):
        assert key in rep


def test_subgroups_enumerated_once(monkeypatch):
    walks, closures = [], []
    walk = FiniteGroup._extension_walk
    closure = FiniteGroup.closure_indices

    def counted_walk(self, abelian):
        walks.append(abelian)
        return walk(self, abelian)

    def counted_closure(self, seed):
        closures.append(seed)
        return closure(self, seed)

    monkeypatch.setattr(FiniteGroup, "_extension_walk", counted_walk)
    monkeypatch.setattr(FiniteGroup, "closure_indices", counted_closure)
    g = pauli_group(pauli_spec(2, 1, 1))
    first = g.subgroups_all()
    # one full walk, and no closure
    assert len(first) == 23 and walks == [False]
    assert closures == []
    walks.clear()
    assert g.subgroups_all() == first
    assert len(g.maximal_subgroups()) == 7
    assert walks == [] and closures == []


def test_fingerprint_computed_once(monkeypatch):
    quotients = []
    quotient = FiniteGroup.quotient

    def counted_quotient(self, n_sub):
        quotients.append(n_sub.members)
        return quotient(self, n_sub)

    monkeypatch.setattr(FiniteGroup, "quotient", counted_quotient)
    g = pauli_group(pauli_spec(2, 1, 1))
    first = g.fingerprint()
    assert g.fingerprint() is first
    assert isomorphic(g, pauli_group(pauli_spec(2, 1, 1)))[0]
    # one G/G' for g, one for the fresh copy
    assert len(quotients) == 2
    assert first.abelianization == (2, 2, 2)


@contextmanager
def _no_cyclic_gc():
    """Groups freed inside the block are freed by reference counting
    alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_group_freed_after_subgroups_all():
    with _no_cyclic_gc():
        g = pauli_group(pauli_spec(2, 1, 2))
        found = len(g.subgroups_all())
        maximal = len(g.maximal_subgroups())
        ref = weakref.ref(g)
        del g
        assert ref() is None
    assert (found, maximal) == (465, 31)


def test_groups_freed_after_isomorphic():
    with _no_cyclic_gc():
        g, h = dihedral8(), _relabelled_d8()
        ok = isomorphic(g, h)[0]
        refs = [weakref.ref(g), weakref.ref(h)]
        del g, h
        assert [r() for r in refs] == [None, None]
    assert ok


def test_run_suite_leaves_no_group_in_cyclic_garbage():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_suite("all")
        gc.collect()
        leaked = [x for x in gc.garbage if isinstance(x, FiniteGroup)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_isomorphic_caps_order():
    x = np.arange(2048)
    z2048 = FiniteGroup(range(2048), (x[:, None] + x) % 2048)
    with pytest.raises(CapError):
        isomorphic(z2048, z2048)


# -- conjugation and commutators against their definitions -------------------

def _closure(t, e, gens):
    members = {e, *gens}
    while True:
        grown = members | {t[a][b] for a in members for b in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


def _check_against_definitions(g, subgroups=()):
    """Conjugates, commutators, classes, the derived subgroup, normal
    closures, and normality and commutators with G of the given
    subgroups, each written from its definition straight off the
    multiplication table."""
    t, e, n = g.table.tolist(), g.identity, g.order
    inv = [next(y for y in range(n) if t[x][y] == e) for x in range(n)]
    conj = [[t[t[inv[x]][m]][x] for m in range(n)] for x in range(n)]
    comm = [[t[t[t[inv[a]][inv[b]]][a]][b] for b in range(n)]
            for a in range(n)]
    assert g.conjugates(range(n)).tolist() == conj
    assert g.commutators(range(n), range(n)).tolist() == comm
    classes = sorted({tuple(sorted({conj[x][m] for x in range(n)}))
                      for m in range(n)})
    assert g.conjugacy_classes == tuple(classes)
    assert g.derived_subgroup().members == \
        _closure(t, e, {c for row in comm for c in row})
    for m in range(n):
        assert g.normal_closure([m]).members == \
            _closure(t, e, {conj[x][m] for x in range(n)})
    whole = g.whole_subgroup()
    for h in subgroups:
        assert h.is_normal() == all(conj[x][m] in h.members
                                    for x in range(n) for m in h.members)
        assert h.commutator_with(whole).members == _closure(
            t, e, {comm[a][b] for a in h.members for b in range(n)})


@pytest.mark.parametrize("make", [
    dihedral8, quaternion8,
    lambda: pauli_group(pauli_spec(3, 1, 1)),
    lambda: pauli_group(pauli_spec(2, 1, 2)),
], ids=["D8", "Q8", "P(1,3)", "P(2,2)"])
def test_conjugation_against_definitions(make):
    g = make()
    _check_against_definitions(g, g.subgroups_all())


def test_conjugation_against_definitions_p22_subgroups():
    for h in pauli_group(pauli_spec(2, 1, 2)).subgroups_all():
        _check_against_definitions(h.as_group())
