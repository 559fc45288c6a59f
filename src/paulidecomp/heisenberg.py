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
is not bilinear, is tabulated from its scalar law.
"""

from __future__ import annotations

from .algebra import Carrier, field_make
from .groupcore import CentralExtension, FiniteGroup, tabulate

HeisKey = tuple  # (a tuple, b tuple, t)

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
# matrix model (characteristic != 2)
# ---------------------------------------------------------------------------

def unitriangular_mul(carrier, m1, m2):
    """Product of the upper unitriangular 3x3 matrices M(a, b; t) over the
    carrier, each given as its entry tuple (a, b, t)."""
    a1, b1, t1 = m1
    a2, b2, t2 = m2
    return (
        carrier.add(a1, a2),
        carrier.add(b1, b2),
        carrier.add(carrier.add(t1, t2), carrier.mul(a1, b2)),
    )


def phi_map(spec: CentralExtension, g: HeisKey):
    """The classical isomorphism (a, b, t) -> M(a, b; (t + a b)/2) from
    the symplectic cocycle model to the matrix model.  Defined for n = 1,
    plain variant, odd characteristic."""
    r = spec.carrier
    if spec != heis_spec(r):
        raise ValueError("phi_map applies to the plain symplectic model, n = 1")
    if r.p == 2:
        raise ValueError("phi_map requires odd characteristic")
    a, b, t = g[0][0], g[1][0], g[2]
    half = r.inv(2)  # the constant 2 has the same code in every carrier here
    s = r.mul(half, r.add(t, r.mul(a, b)))
    return (a, b, s)


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
    the generator of Z/p acting by x -> x^(1+p), for odd p."""
    if p == 2:
        raise ValueError("E2 is defined for odd p")
    p2 = p * p

    def mul(g, h):
        x1, y1 = g
        x2, y2 = h
        # (x1, y1)(x2, y2) = (x1 + x2 (1+p)^y1, y1 + y2)
        return ((x1 + x2 * pow(1 + p, y1, p2)) % p2, (y1 + y2) % p)

    elems = [(x, y) for x in range(p2) for y in range(p)]
    return FiniteGroup(elems, tabulate(elems, mul), name=f"E2({p})")
