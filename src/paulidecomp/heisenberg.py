"""Heisenberg groups over finite carriers, and E2(p), the one reference
group used to identify factors of central-product decompositions that
is not a central-extension spec.

The carrier R is an ``algebra.Carrier``: the field GF(p^m) or the ring
Z/p^m, one class whose tables are built on first use, so a spec reports
its order before any table exists.
Elements are triples ``(a, b, t)`` with a, b in R^n and the central entry
t either in R (plain variant) or in Z_p (reduced variant, where the
cocycle is composed with the trace form).  The product is

    (a1,b1,t1)(a2,b2,t2) = (a1+a2, b1+b2, t1+t2+c((a1,b1),(a2,b2)))

with cocycle c = a1.b2 - b1.a2 (symplectic) or c = a1.b2 (polarized): a
``algebra.CentralExtension`` (spec ``algebra.heis_spec``) with the
centre last in the key.
The two cocycles give isomorphic groups in odd characteristic; the
polarized one matches the upper unitriangular 3x3 matrix model.

D8, Q8 and E1(p) are central extensions of GF(p)^2 by GF(p) too: the
specs ``algebra.D8``, ``algebra.Q8`` and ``algebra.e1_spec(p)``, whose
groups come from ``groupcore.extension_group`` as every spec's do.
E2(p), whose cocycle is not bilinear, has its table built here from
whole arrays of its law, as every other table is.
"""

from __future__ import annotations

from .algebra import CentralExtension, is_prime
from .groupcore import (INDEX, FiniteGroup, extension_group,
                        refuse_above_max_order, shared)

import numpy as np


def heis_group(spec: CentralExtension) -> FiniteGroup:
    """Materialize H(R^n)."""
    return extension_group(spec)


@shared
def extraspecial_e2(p: int) -> FiniteGroup:
    """E2(p): the extraspecial group Z/p^2 x| Z/p of exponent p^2, with
    the generator of Z/p acting by x -> x^(1+p), for odd p.  The product
    (x1, y1)(x2, y2) = (x1 + x2 (1+p)^y1 mod p^2, y1 + y2 mod p) is taken
    over all pairs at once, with (1+p)^y = 1 + y p mod p^2; (x, y) has
    index x p + y."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"E2 is defined for odd primes p, got {p}")
    refuse_above_max_order(p ** 3)
    x, y = np.arange(p * p, dtype=np.int32), np.arange(p, dtype=np.int32)
    # the x part is indexed [x1, y1, x2] and the y part [y1, y2]; their
    # broadcast sum over [x1, y1, x2, y2] is the one full-size array made,
    # an INDEX sum that cannot wrap, as each entry is below p^3
    xs = ((x[:, None, None] + x * (1 + p * y[:, None])) % (p * p)
          * p).astype(INDEX)
    ys = ((y[:, None] + y) % p).astype(INDEX)
    table = (xs[..., None] + ys[:, None]).reshape(p ** 3, p ** 3)
    elems = [(a, b) for a in range(p * p) for b in range(p)]
    return FiniteGroup(elems, table, name=f"E2({p})")
