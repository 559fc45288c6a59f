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
"""

from __future__ import annotations

from .algebra import CentralExtension, pauli_spec
from .groupcore import FiniteGroup, extension_group

PauliKey = tuple  # (phase, alpha tuple, beta tuple)


def pauli_element(spec: CentralExtension, register: int = 0, x: int = 0,
                  z: int = 0, phase: int = 0) -> PauliKey:
    """w^phase X^x Z^z on one register (w = i for p = 2); Y = iXZ is
    x = z = phase = 1."""
    def unit(e):
        return tuple(e if k == register else 0 for k in range(spec.n))
    return spec.element(unit(x), unit(z), phase)


def pauli_group(spec: CentralExtension) -> FiniteGroup:
    """Materialize P_{n,q}, shared within a run as every spec's group is
    (``groupcore.extension_group``).  Elements are enumerated directly
    (the set is known in closed form); that the register generators
    generate it all is checked by the ``assert_faithful_representation``
    fixture of ``tests/conftest.py``, which closes them under the scalar
    ``mul``."""
    return extension_group(spec)


# ---------------------------------------------------------------------------
# presentation data (qubit case)
# ---------------------------------------------------------------------------

def p12_named_elements() -> dict[str, PauliKey]:
    """The standard named elements of the one-qubit Pauli group:
    X, Y, Z, u = XY, a = Y, b = XYZ."""
    s = pauli_spec(2, 1, 1)
    X, Z = pauli_element(s, x=1), pauli_element(s, z=1)
    Y = pauli_element(s, x=1, z=1, phase=1)
    u = s.mul(X, Y)
    b = s.mul(u, Z)
    return {"X": X, "Y": Y, "Z": Z, "u": u, "a": Y, "b": b}


def p22_named_generators() -> dict[str, PauliKey]:
    """The five order-64 generators X@I, Y@I, Z@I, I@Z, I@X."""
    s = pauli_spec(2, 1, 2)
    return {
        "A": pauli_element(s, 0, x=1),
        "B": pauli_element(s, 0, x=1, z=1, phase=1),
        "C": pauli_element(s, 0, z=1),
        "D": pauli_element(s, 1, z=1),
        "E": pauli_element(s, 1, x=1),
    }
