"""Heisenberg groups over finite carriers, plus the small reference groups
used to identify factors of central-product decompositions.

The carrier R is an ``algebra.Carrier``: the field GF(p^m) or the ring
Z/p^m, one class whose tables are built on first use, so a spec reports
its order before any table exists.
Elements are triples ``(a, b, t)`` with a, b in R^n and the central entry
t either in R (plain variant) or in Z_p (reduced variant, where the
cocycle is composed with the trace form).  The product is

    (a1,b1,t1)(a2,b2,t2) = (a1+a2, b1+b2, t1+t2+c((a1,b1),(a2,b2)))

with cocycle c = a1.b2 - b1.a2 (symplectic) or c = a1.b2 (polarized): a
``groupcore.CentralExtension`` with the centre last in the key.
The two cocycles give isomorphic groups in odd characteristic; the
polarized one matches the upper unitriangular 3x3 matrix model.

D8 and Q8 are central extensions of GF(2) x GF(2) by GF(2) too, through
the forms a1.a2 + b1.a2 and a1.a2 + b1.b2 + b1.a2; E2(p), whose cocycle
is not bilinear, has its table built from whole arrays of its law, as
every other table is.
"""

from __future__ import annotations

import numpy as np

from .algebra import Carrier, field_make
from .groupcore import CentralExtension, FiniteGroup

# the cocycles as signed block pairs (see ``CentralExtension``)
COCYCLES = {
    "symplectic": ((1, 0, 1), (-1, 1, 0)),  # a1.b2 - b1.a2
    "polarized": ((1, 0, 1),),              # a1.b2
}


def heis_spec(carrier: Carrier, n: int = 1, cocycle: str = "symplectic",
              reduced: bool = False) -> CentralExtension:
    """H(R^n) with a chosen cocycle and optional trace reduction of the
    central coordinate."""
    if cocycle not in COCYCLES:
        raise ValueError(f"cocycle must be one of {tuple(COCYCLES)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if reduced and not carrier.field and carrier.m > 1:
        raise ValueError("the reduced variant needs a field carrier: the "
                         f"trace is not defined on Z/{carrier.size}")
    tag = "Hred" if reduced else "H"
    rname = (f"gf({carrier.size})" if carrier.field
             else f"z{carrier.size}")
    return CentralExtension(carrier, n, COCYCLES[cocycle],
                            "trace" if reduced else "carrier",
                            centre_first=False,
                            name=f"{tag}({rname}^{n},{cocycle})")


def heis_group(spec: CentralExtension) -> FiniteGroup:
    """Materialize H(R^n)."""
    return spec.group()


# ---------------------------------------------------------------------------
# reference groups
# ---------------------------------------------------------------------------

def dihedral8() -> FiniteGroup:
    """D8 as the central extension of GF(2)^2 by GF(2) through the form
    a1.a2 + b1.a2."""
    return CentralExtension(field_make(2, 1), 1, ((1, 0, 0), (1, 1, 0)),
                            "carrier", centre_first=True, name="D8").group()


def quaternion8() -> FiniteGroup:
    """Q8 as the central extension of GF(2)^2 by GF(2) through the form
    a1.a2 + b1.b2 + b1.a2."""
    return CentralExtension(field_make(2, 1), 1,
                            ((1, 0, 0), (1, 1, 1), (1, 1, 0)), "carrier",
                            centre_first=True, name="Q8").group()


def extraspecial_e1(p: int) -> FiniteGroup:
    """E1(p): exponent-p extraspecial group of order p^3 (the Heisenberg
    group over GF(p)), for odd p."""
    if p == 2:
        raise ValueError("E1 is defined for odd p")
    spec = heis_spec(field_make(p, 1), cocycle="polarized")
    return heis_group(spec)


def extraspecial_e2(p: int) -> FiniteGroup:
    """E2(p): the extraspecial group Z/p^2 x| Z/p of exponent p^2, with
    the generator of Z/p acting by x -> x^(1+p), for odd p.  The product
    (x1, y1)(x2, y2) = (x1 + x2 (1+p)^y1 mod p^2, y1 + y2 mod p) is taken
    over all pairs at once, with (1+p)^y = 1 + y p mod p^2; (x, y) has
    index x p + y."""
    if p == 2:
        raise ValueError("E2 is defined for odd p")
    x, y = np.arange(p * p, dtype=np.int32), np.arange(p, dtype=np.int32)
    # the x part is indexed [x1, y1, x2] and the y part [y1, y2]; their
    # broadcast sum over [x1, y1, x2, y2] is the one full-size array made
    xs = (x[:, None, None] + x * (1 + p * y[:, None])) % (p * p) * p
    ys = (y[:, None] + y) % p
    table = (xs[..., None] + ys[:, None]).reshape(p ** 3, p ** 3)
    elems = [(a, b) for a in range(p * p) for b in range(p)]
    return FiniteGroup(elems, table, name=f"E2({p})")
