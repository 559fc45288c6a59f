import gc
import itertools
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_oracle import tabulate
from paulidecomp import groupcore
from paulidecomp.claims import CHECKS, EXPECTED, corollary43_check, run_suite
from paulidecomp.cli import build_group, main, parse_spec
from paulidecomp.groupcore import (BLOCK, CapError, FiniteGroup,
                                   GroupStructureError, _row_blocks,
                                   abelian_invariants, extension_group,
                                   isomorphic)
from paulidecomp.algebra import (D8, Q8, e1_spec, field_make, heis_spec,
                                 pauli_spec)
from paulidecomp.heisenberg import extraspecial_e2, heis_group
from paulidecomp.pauli import pauli_group
from paulidecomp.products import classify_special, decompose_pauli_chain


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


def _z2_times_z150():
    """Z_2 x Z_150, element 2z + b for (b, z): order 300, so Light's test
    and the inverse search take blocks of 218 rows and a last block of
    82."""
    i = np.arange(300)
    z, b = i // 2, i % 2
    return 2 * ((z[:, None] + z[None, :]) % 150) + (b[:, None] ^ b[None, :])


def test_row_blocks_bound_the_gathers():
    assert _row_blocks(256) == [slice(0, 256)]
    assert _row_blocks(300) == [slice(0, 218), slice(218, 436)]
    assert len(_row_blocks(4096)) == 256
    # past BLOCK^2 a block is one row
    assert _row_blocks(BLOCK ** 2 + 1)[:2] == [slice(0, 1), slice(1, 2)]


def test_inverses_found_in_every_row_block():
    g = FiniteGroup(range(300), _z2_times_z150())
    assert (g.table[np.arange(300), g.inverse] == g.identity).all()
    assert (g.table[g.inverse, np.arange(300)] == g.identity).all()


def test_light_rejects_intercalate_swap_in_the_last_row_block():
    # rows 298 and 299 and columns 4 and 5 hold a 2x2 subsquare; swapped,
    # the table is still a Latin square with the same identity and
    # inverses.  Neither column is in the generating set (2, 3), so every
    # failing triple (xy)s != x(ys) has x = 298 or 299: in the last row
    # block, which holds fewer rows than the others
    table = _z2_times_z150()
    a, d, b, c = 298, 299, 5, 4
    table[[a, a, d, d], [b, c, b, c]] = table[[a, a, d, d], [c, b, c, b]]
    assert _row_blocks(300)[-1].start <= a < d
    with pytest.raises(GroupStructureError, match="not associative"):
        FiniteGroup(range(300), table)


def test_inverse_missing_only_in_the_last_row_block_rejected():
    # row 299 loses its identity entry (column 3); no other row changes
    table = _z2_times_z150()
    assert table[299, 3] == 0
    table[299, 3] = table[299, 5]
    with pytest.raises(GroupStructureError, match="two-sided inverse"):
        FiniteGroup(range(300), table)


def test_empty_table_rejected():
    with pytest.raises(GroupStructureError, match="no identity"):
        FiniteGroup([], np.zeros((0, 0), np.int32))


@pytest.mark.parametrize("entry", [-1, 3, 4, 2**16, 2**16 + 1, 2**31 - 1])
def test_entries_outside_the_range_rejected(entry):
    # Z_3 with one entry replaced: it neither indexes nor wraps, as
    # 2**16 and 2**16 + 1 would to 0 and 1 if narrowed to uint16 unchecked
    table = (np.arange(3)[:, None] + np.arange(3)) % 3
    table[1, 2] = entry
    with pytest.raises(GroupStructureError, match=r"lie in \[0, 3\)"):
        FiniteGroup(range(3), table)


def test_orders_above_the_index_limit_refused_before_any_table():
    # uint16 indices number at most 2**16 elements; the table argument is
    # never read, and no table of P(8,2) or E2(41) is allocated
    with pytest.raises(CapError, match="65536"):
        FiniteGroup(range(2**16 + 1), None)
    with pytest.raises(CapError, match="65536"):
        groupcore.extension_table(pauli_spec(2, 1, 8))
    with pytest.raises(CapError, match="65536"):
        extraspecial_e2(41)


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
    d8 = extension_group(D8)
    assert d8.order == 8
    assert d8.center().order == 2
    assert d8.derived_subgroup().order == 2
    assert d8.frattini().order == 2
    assert sorted(d8.element_orders) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert abelian_invariants(d8.quotient(d8.center())) == (2, 2)


def test_subgroup_enumeration_d8():
    d8 = extension_group(D8)
    subs = d8.subgroups_all()
    assert len(subs) == 10
    assert sorted(h.order for h in subs) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]
    assert sum(1 for h in subs if h.is_normal()) == 6


def test_subgroup_handle_operations():
    d8 = extension_group(D8)
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
    d8 = extension_group(D8)
    perm = [3, 1, 4, 0, 6, 2, 7, 5]
    table = {(perm[i], perm[j]): perm[d8.table[i, j]]
             for i in range(8) for j in range(8)}
    return FiniteGroup(range(8), tabulate(range(8), lambda a, b: table[(a, b)]))


@pytest.mark.parametrize("make_g,make_h", [
    (lambda: extension_group(D8), _relabelled_d8),
    (lambda: pauli_group(pauli_spec(3, 1, 1)),
     lambda: heis_group(heis_spec(field_make(3, 1)))),
    (lambda: pauli_group(pauli_spec(3, 1, 1)),
     lambda: extension_group(e1_spec(3))),
], ids=["D8-relabelled", "P(1,3)-H(GF(3))", "P(1,3)-E1(3)"])
def test_isomorphism_witness(make_g, make_h):
    g, h = make_g(), make_h()
    ok, phi = isomorphic(g, h)
    assert ok
    _assert_isomorphism(g, h, phi)


def test_isomorphism_oracle():
    # rejections: equal orders, different groups
    d8, q8 = extension_group(D8), extension_group(Q8)
    assert isomorphic(d8, q8) == (False, None)
    e1 = extension_group(e1_spec(3))
    assert isomorphic(e1, extraspecial_e2(3)) == (False, None)


def test_quotient_and_normal_closure():
    q8 = extension_group(Q8)
    q = q8.quotient(q8.center())
    assert abelian_invariants(q) == (2, 2)
    # the normal closure of any non-central element of q8 has order >= 4
    non_central = [i for i in range(8) if i not in q8.center().members][0]
    assert len(q8.closure_indices(q8.conjugates([non_central]))) >= 4


def test_report_shape():
    d8 = extension_group(D8)
    rep = d8.report()
    for key in ("order", "exponent", "center_order", "derived_order",
                "frattini_order", "fingerprint", "order_sequence"):
        assert key in rep


def test_report_reads_frattini_without_a_walk(monkeypatch):
    # Phi(G) = G^p [G,G]: {1, -1} in P(2,2) and the centre in E1(3)
    def refuse(self, abelian):
        raise AssertionError("subgroup walk during report()")

    monkeypatch.setattr(FiniteGroup, "_extension_walk", refuse)
    assert pauli_group(pauli_spec(2, 1, 2)).report()["frattini_order"] == 2
    assert extension_group(e1_spec(3)).report()["frattini_order"] == 3


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
    # one G/G' for g; ``isomorphic`` builds none
    assert len(quotients) == 1
    assert first["abelianization"] == [2, 2, 2]


def test_isomorphic_builds_no_table(built):
    # neither the certificate, the pre-filter nor the search builds a
    # group: no table of G/G' is read
    pairs = [(lambda: extension_group(D8), lambda: extension_group(Q8)),
             (lambda: extension_group(e1_spec(3)), lambda: extraspecial_e2(3)),
             (lambda: pauli_group(pauli_spec(3, 1, 1)),
              lambda: heis_group(heis_spec(field_make(3, 1)))),
             (lambda: pauli_group(pauli_spec(2, 1, 1)),) * 2]
    for make_g, make_h in pairs:
        g, h = make_g(), make_h()
        tables = built["tables"]
        isomorphic(g, h)
        assert built["tables"] == tables


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
        g, h = extension_group(D8), _relabelled_d8()
        ok = isomorphic(g, h)[0]
        refs = [weakref.ref(g), weakref.ref(h)]
        del g, h
        assert [r() for r in refs] == [None, None]
    assert ok


def test_run_scope_closed_and_groups_freed_after_run(built):
    with _no_cyclic_gc():
        statuses = [r.status for r in run_suite("all")]
        assert groupcore._run.get() is None
        assert any(spec.name == "P(1,2)" for spec, _ in built["groups"])
        assert all(ref() is None for _, ref in built["groups"])
    assert statuses == [EXPECTED[c] for c in sorted(CHECKS)]


def test_run_scope_closed_when_a_claim_raises(built, monkeypatch):
    def broken():
        raise RuntimeError("claim failed")

    # thm4.1 runs after claims that build P(1,2), P(2,2) and P(3,2)
    monkeypatch.setitem(CHECKS, "thm4.1", broken)
    with _no_cyclic_gc():
        with pytest.raises(RuntimeError, match="claim failed"):
            run_suite("all")
        assert groupcore._run.get() is None
        assert any(spec.name == "P(3,2)" for spec, _ in built["groups"])
        assert all(ref() is None for _, ref in built["groups"])


# each @shared function with arguments it may be called with
SHARED = {
    "extension_group": lambda: (groupcore.extension_group,
                                (pauli_spec(2, 1, 1),)),
    "extraspecial_e2": lambda: (extraspecial_e2, (3,)),
    "classify_special": lambda: (classify_special, (extension_group(D8),)),
    "decompose_pauli_chain": lambda: (decompose_pauli_chain, (2,)),
    "corollary43_check": lambda: (corollary43_check, (3, 1, 1)),
}


@pytest.mark.parametrize("name", SHARED)
def test_no_sharing_outside_a_run(name):
    fn, args = SHARED[name]()
    assert fn(*args) is not fn(*args)
    with groupcore.run_scope():
        assert fn(*args) is fn(*args)
    assert fn(*args) is not fn(*args)


@pytest.mark.parametrize("spec, tables", [("pauli:p=2,n=4", 11),
                                          ("pauli:p=3,n=3", 9)])
def test_decompose_builds_each_reference_group_once(built, capsys, spec,
                                                    tables):
    # 17 and 13 when identify_factor built its reference group anew for
    # every factor
    assert main(["decompose", spec]) == 0
    capsys.readouterr()
    assert built["tables"] <= tables
    assert set(Counter(s for s, _ in built["groups"]).values()) == {1}


@pytest.mark.parametrize("spec, reference",
                         [("pauli:p=2,n=2", pauli_spec(2, 1, 1)),
                          ("pauli:p=3,n=2", e1_spec(3))])
def test_decompose_run_closed_and_groups_freed(built, capsys, spec,
                                               reference):
    # the factors are identified against ``reference``
    with _no_cyclic_gc():
        assert main(["decompose", spec]) == 0
        assert groupcore._run.get() is None
        assert reference in {s for s, _ in built["groups"]}
        assert all(ref() is None for _, ref in built["groups"])
    capsys.readouterr()


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
        assert g.closure_indices(g.conjugates([m])) == \
            _closure(t, e, {conj[x][m] for x in range(n)})
    whole = g.whole_subgroup()
    for h in subgroups:
        assert h.is_normal() == all(conj[x][m] in h.members
                                    for x in range(n) for m in h.members)
        assert h.commutator_with(whole).members == _closure(
            t, e, {comm[a][b] for a in h.members for b in range(n)})


@pytest.mark.parametrize("make", [
    lambda: extension_group(D8), lambda: extension_group(Q8),
    lambda: pauli_group(pauli_spec(3, 1, 1)),
    lambda: pauli_group(pauli_spec(2, 1, 2)),
], ids=["D8", "Q8", "P(1,3)", "P(2,2)"])
def test_conjugation_against_definitions(make):
    g = make()
    _check_against_definitions(g, g.subgroups_all())


def test_conjugation_against_definitions_p22_subgroups():
    for h in pauli_group(pauli_spec(2, 1, 2)).subgroups_all():
        _check_against_definitions(h.as_group())


@pytest.mark.parametrize("spec", ["d8", "q8", "pauli:p=2,n=1",
                                  "pauli:p=2,n=2", "heis:R=gf(3),n=1",
                                  "heis:R=z(4),n=1", "lifted:p=2,m=2,n=1"])
def test_abelian_flags_against_each_subgroup_table(spec, monkeypatch):
    # the flags of one gather per block of subgroups of one order, against
    # each subgroup's own table; in canonical order, reversed, interleaved
    # (short runs of one order) and in blocks of at most 16 entries
    g = build_group(*parse_spec(spec))
    subs = [h.members for h in g.subgroups_all()]
    expected = [bool((g.table[np.ix_(m, m)] == g.table[np.ix_(m, m)].T).all())
                for m in subs]
    assert False in expected and True in expected
    assert g.abelian_flags(subs) == expected
    assert g.abelian_flags(subs[::-1]) == expected[::-1]
    assert (g.abelian_flags(subs[::2] + subs[1::2])
            == expected[::2] + expected[1::2])
    assert [h.is_abelian() for h in g.subgroups_all()] == expected
    monkeypatch.setattr(groupcore, "BLOCK", 4)
    assert g.abelian_flags(subs) == expected


# -- the one index dtype --------------------------------------------------------

def test_every_group_a_command_builds_holds_uint16_indices(monkeypatch,
                                                           capsys):
    # family specs, reference specs, E2, the trivial group, the p = 2
    # pi-image, and the quotients and subgroup groups of ``verify all``
    names, dtypes = set(), set()
    finish = FiniteGroup._finish_init
    as_group = groupcore.SubgroupHandle.as_group

    def recorded(self, *args):
        finish(self, *args)
        names.add(self.name)
        dtypes.add((self.table.dtype, self.inverse.dtype))

    def noted_as_group(self):
        names.add("as_group()")
        return as_group(self)

    monkeypatch.setattr(FiniteGroup, "_finish_init", recorded)
    monkeypatch.setattr(groupcore.SubgroupHandle, "as_group", noted_as_group)
    for argv in (["build", "pauli:p=2,n=2"], ["build", "heis:R=z(9),n=1"],
                 ["build", "lifted:p=3,m=2,n=1"], ["build", "q8"],
                 ["build", "e2:p=3"], ["build", "trivial"],
                 ["lifted", "p=2,m=2,n=1"], ["verify", "all"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert {"E2(3)", "1", "Re Plift-image(1,4)", "as_group()"} <= names
    assert any(name.endswith("/N") for name in names)
    assert dtypes == {(np.dtype(np.uint16),) * 2}


def test_order_4096_against_definitions_in_python_ints():
    # at order 4096 a flat position row * |G| + col or a sum of indices
    # leaves uint16; each result is checked against its definition read
    # entry by entry from the table as Python ints, on the largest indices
    # and a spread of others
    g = extension_group(pauli_spec(2, 1, 5))
    n, e = g.order, g.identity
    assert (n, g.table.dtype) == (4096, np.dtype(np.uint16))

    def mul(a, b):
        return int(g.table[a, b])

    def inv(x):
        return g.table[x].tolist().index(e)

    picks = sorted({*range(n - 8, n), *range(0, n, 337), 1, 2, 3})
    conj = g.conjugates(picks, picks).tolist()
    comm = g.commutators(picks, picks).tolist()
    for i, x in enumerate(picks):
        for k, y in enumerate(picks):
            assert conj[i][k] == mul(mul(inv(x), y), x)
            assert comm[i][k] == mul(mul(mul(inv(x), inv(y)), x), y)

    def closure(seeds):
        members, frontier = {e}, [e]
        while frontier:
            frontier = [z for z in {mul(a, s) for a in frontier
                                    for s in seeds} if z not in members]
            members.update(frontier)
        return tuple(sorted(members))

    for seeds in ([n - 1], [n - 1, n - 2, 1], picks[-6:], picks):
        assert g.closure_indices(seeds) == closure(seeds)
    # row k of a block of ``closures`` starts at flat position k |G|,
    # past 2**16 from the 17th row on
    assert len(picks) > 16
    rows = g.closures([[x] for x in picks])
    assert [tuple(np.flatnonzero(row).tolist()) for row in rows] == [
        closure([x]) for x in picks]
    quotient = g.quotient(g.center())
    coset_of = {x: i for i, c in enumerate(quotient.elements) for x in c}
    assert quotient.order == n // 4
    for i in (0, 1, quotient.order - 2, quotient.order - 1):
        a = quotient.elements[i][0]
        assert quotient.table[i].tolist() == [
            coset_of[mul(a, c[0])] for c in quotient.elements]
