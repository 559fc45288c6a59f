"""Lifted Pauli groups: unitriangular (n+2)x(n+2) matrices over GF(q)
with a row vector alpha, a column vector beta and a corner entry eta.

An element is the tuple ``(eta, alpha, beta)`` with eta in GF(q) and
alpha, beta in GF(q)^n.  Matrix multiplication gives

    (e1,a1,b1)(e2,a2,b2) = (e1 + e2 + a1.b2, a1+a2, b1+b2).

Here we keep the cross term on the beta-alpha side, matching the Pauli
phase-space convention (an ``algebra.CentralExtension``, built by
``algebra.lifted_spec``, with the Pauli form and the carrier as centre):

    (e1,a1,b1)(e2,a2,b2) = (e1 + e2 + b1.a2, a1+a2, b1+b2).

The two conventions are exchanged by the relabeling alpha <-> beta, an
anti-isomorphism composed with inversion, so the groups are isomorphic;
the tests check the matrix model against ``mul`` after the swap.  The
group has order q^(2n+1) and projects onto the corresponding Pauli group
by reducing the corner entry through the field trace.
"""

from __future__ import annotations

from .algebra import PAULI_FORM, CentralExtension, pauli_law
from .groupcore import FiniteGroup, extension_group, extension_table

LiftedKey = tuple  # (eta, alpha tuple, beta tuple)


def lifted_group(spec: CentralExtension) -> FiniteGroup:
    """Materialize the lifted group."""
    return extension_group(spec)


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
    its keys (tr eta, alpha, beta) are those of P_{n,q}, so it is the
    group of ``pauli_law``, shared within a run with ``pauli_group``; for
    p = 2 it is a group of order 2^(2nm+1) with phases restricted to +-1,
    a subgroup of ``pauli_law``."""
    f = spec.carrier
    if f.p != 2:
        return extension_group(pauli_law(f, spec.n))
    name = f"Re Plift-image({spec.n},{f.size})"
    # centre Z_2: the phase index is the trace of eta, which the key
    # stores doubled
    image = CentralExtension(f, spec.n, PAULI_FORM, "trace",
                             centre_first=True, name=name)
    keys = sorted({pi_map(spec, g) for g in spec.elements()})
    return FiniteGroup(keys, extension_table(image), name=name)
