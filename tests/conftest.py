"""Fixtures shared by the family test modules."""

import weakref

import pytest

from paulidecomp import groupcore
from paulidecomp.groupcore import FiniteGroup


@pytest.fixture
def assert_faithful_representation():
    """Exact check that ``rep`` maps the group of ``spec`` faithfully into
    a group of invertible matrices: rep(g s) = rep(g) rep(s) for every
    element g and every s in ``gens``, ``gens`` generates the whole group,
    and distinct elements have distinct images.  Every element is a
    product of generators, so the first condition makes rep a
    homomorphism."""
    def check(spec, gens, rep, rep_mul):
        images = {g: rep(g) for g in spec.elements()}
        for g, image in images.items():
            for s in gens:
                assert images[spec.mul(g, s)] == rep_mul(image, images[s])
        reached = {spec.identity()}
        frontier = list(reached)
        while frontier:
            frontier = list({spec.mul(g, s) for g in frontier for s in gens}
                            - reached)
            reached.update(frontier)
        assert len(reached) == spec.order
        assert len(set(images.values())) == spec.order

    return check


@pytest.fixture
def built(monkeypatch):
    """Every group a ``CentralExtension`` spec builds, as (spec, weakref)
    pairs, and every ``FiniteGroup`` construction, counted.  A spec's
    group is computed by ``groupcore.extension_group``, which looks up
    ``extension_table`` by name and hands the table straight to the
    constructor, so the spec whose table was built last is paired with
    the next group constructed.  A group a run's memo hands out again is
    not built again, so it is not recorded again."""
    record = {"groups": [], "tables": 0}
    table, init = groupcore.extension_table, FiniteGroup.__init__
    finish, pending = FiniteGroup._finish_init, []

    def counted_table(spec):
        pending.append(spec)
        return table(spec)

    def counted_init(self, *args, **kwargs):
        spec = pending.pop() if pending else None
        init(self, *args, **kwargs)
        if spec is not None:
            record["groups"].append((spec, weakref.ref(self)))

    def counted_finish(self, *args):
        record["tables"] += 1
        return finish(self, *args)

    monkeypatch.setattr(groupcore, "extension_table", counted_table)
    monkeypatch.setattr(FiniteGroup, "__init__", counted_init)
    monkeypatch.setattr(FiniteGroup, "_finish_init", counted_finish)
    return record
