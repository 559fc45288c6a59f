"""Lifted Pauli groups: unitriangular (n+2)x(n+2) matrices over GF(q)
with a row vector alpha, a column vector beta and a corner entry eta.

An element is the tuple ``(eta, alpha, beta)`` with eta in GF(q) and
alpha, beta in GF(q)^n.  Matrix multiplication gives

    (e1,a1,b1)(e2,a2,b2) = (e1 + e2 + a1.b2, a1+a2, b1+b2).

Here we keep the cross term on the beta-alpha side, matching the Pauli
phase-space convention (a ``groupcore.CentralExtension`` with the Pauli
form and the carrier as centre):

    (e1,a1,b1)(e2,a2,b2) = (e1 + e2 + b1.a2, a1+a2, b1+b2).

The two conventions are exchanged by the relabeling alpha <-> beta, an
anti-isomorphism composed with inversion, so the groups are isomorphic;
tests check the matrix model agrees after the swap.  The group has order
q^(2n+1) and projects onto the corresponding Pauli group by reducing the
corner entry through the field trace.
"""

from __future__ import annotations

import itertools

from .algebra import field_make
from .groupcore import CentralExtension, FiniteGroup
from .pauli import PAULI_FORM, pauli_law

LiftedKey = tuple  # (eta, alpha tuple, beta tuple)


def lifted_spec(p: int, m: int, n: int) -> CentralExtension:
    """The lifted Pauli group over GF(p^m) on n registers."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    f = field_make(p, m)
    return CentralExtension(f, n, PAULI_FORM, "carrier", centre_first=True,
                            name=f"Plift({n},{f.size})")


def lifted_group(spec: CentralExtension) -> FiniteGroup:
    """Materialize the lifted group."""
    return spec.group()


# ---------------------------------------------------------------------------
# independent matrix oracle
# ---------------------------------------------------------------------------

def lifted_matrix(spec: CentralExtension, g: LiftedKey):
    """(n+2)x(n+2) unitriangular matrix over GF(q), row vector first.
    The alpha <-> beta swap aligns the matrix cross term a1.b2 with the
    phase-space cross term b1.a2 used by ``mul``."""
    n = spec.n
    size = n + 2
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 1
    for k in range(n):
        rows[0][1 + k] = g[2][k]
        rows[1 + k][size - 1] = g[1][k]
    rows[0][size - 1] = g[0]
    return tuple(tuple(r) for r in rows)


def lifted_matrix_mul(spec: CentralExtension, m1, m2):
    f = spec.carrier
    size = spec.n + 2
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = 0
            for k in range(size):
                acc = f.add(acc, f.mul(m1[i][k], m2[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# projection onto the ordinary Pauli group
# ---------------------------------------------------------------------------

def pi_map(spec: CentralExtension, g: LiftedKey) -> tuple:
    """The trace epimorphism onto P_{n,q}.  For odd p the phase is the
    absolute trace of eta; for p = 2 the Z_2-valued trace is doubled into
    the i-phase group Z_4, so the image is the real (phase +-1 on the
    X-Z part) subgroup of P_{n,2^m}."""
    f = spec.carrier
    t = f.trace(g[0])
    if f.p == 2:
        return (2 * t, g[1], g[2])
    return (t, g[1], g[2])


def pi_kernel(spec: CentralExtension) -> list[LiftedKey]:
    """Central kernel {(eta, 0, 0) : tr eta = 0} of the projection."""
    f = spec.carrier
    zero = (0,) * spec.n
    return [(eta, zero, zero) for eta in range(f.size) if f.trace(eta) == 0]


def pi_image_group(spec: CentralExtension) -> FiniteGroup:
    """The image of the projection, materialized as a group.  For odd p
    this is all of P_{n,q}; for p = 2 it is a group of order 2^(2nm+1)
    with phases restricted to +-1, a subgroup of ``pauli_law``."""
    f = spec.carrier
    name = f"Re Plift-image({spec.n},{f.size})" if f.p == 2 \
        else f"P({spec.n},{f.size})"
    # centre Z_p in both cases: the phase index is the trace of eta (the
    # key stores it doubled for p = 2)
    image = CentralExtension(f, spec.n, PAULI_FORM, "trace",
                             centre_first=True, name=name)
    keys = sorted({pi_map(spec, g) for g in spec.elements()})
    return FiniteGroup(keys, image.table(), name=name)


def pi_is_homomorphism(spec: CentralExtension) -> bool:
    """Check Pi(gh) = Pi(g)Pi(h) against the product of ``pauli_law`` for
    every pair g, h."""
    tmul = pauli_law(spec.carrier, spec.n).mul
    els = spec.elements()
    for g, h in itertools.product(els, els):
        if pi_map(spec, spec.mul(g, h)) != tmul(pi_map(spec, g), pi_map(spec, h)):
            return False
    return True
