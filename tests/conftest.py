"""Fixtures shared by the family test modules."""

import weakref

import pytest

from paulidecomp import groupcore, heisenberg, lifted, pauli
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
    pairs, and every ``FiniteGroup`` construction, counted.  The spec's
    builder, ``groupcore.extension_group``, is replaced in each family
    module that binds it."""
    record = {"groups": [], "tables": 0}
    group, finish = groupcore.extension_group, FiniteGroup._finish_init

    def counted_group(spec):
        g = group(spec)
        record["groups"].append((spec, weakref.ref(g)))
        return g

    def counted_finish(self, *args):
        record["tables"] += 1
        return finish(self, *args)

    for module in (pauli, heisenberg, lifted):
        monkeypatch.setattr(module, "extension_group", counted_group)
    monkeypatch.setattr(FiniteGroup, "_finish_init", counted_finish)
    return record
