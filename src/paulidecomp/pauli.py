"""Pauli groups on n qudits of prime-power dimension q = p^m, in
phase-space form.

An element is the tuple ``(phase, alpha, beta)`` encoding
w^c X^alpha Z^beta, with alpha, beta length-n vectors over GF(q) (each
coordinate an integer field code) and the phase an integer residue:
mod 4 for p = 2 (phase group generated by i), mod p for odd p.

Multiplication pulls X factors left past Z factors:

    (c1,a1,b1)(c2,a2,b2) = (c1 + c2 + x, a1+a2, b1+b2)

with cross term x = tr(b1 . a2) for odd p and x = 2 (b1 . a2) for p = 2,
the dot product taken in GF(q): an ``algebra.CentralExtension`` (spec
``algebra.pauli_spec``) with form b1 . a2 and centre Z_4 through the
doubled trace (p = 2) or Z_p through the trace (odd p).  For m > 1 the
phase convention is the trace form: phases live in Z_p and the clock
operator acts through the additive character j -> w_p^tr(j), which is
what makes the phase-space product match the exact matrix product (the
tests check it against a matrix oracle over the cyclotomic integers).
The element keys ``algebra.pauli_element`` and the named elements of
P_{1,2} and P_{2,2} are read from the spec alone, in the numpy-free
``algebra``.
"""

from __future__ import annotations

from .algebra import CentralExtension
from .groupcore import FiniteGroup, extension_group


def pauli_group(spec: CentralExtension) -> FiniteGroup:
    """Materialize P_{n,q}, shared within a run as every spec's group is
    (``groupcore.extension_group``).  Elements are enumerated directly
    (the set is known in closed form); that the register generators
    generate it all is checked by the ``assert_faithful_representation``
    fixture of ``tests/conftest.py``, which closes them under the scalar
    ``mul``."""
    return extension_group(spec)
