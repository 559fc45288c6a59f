"""Exact arithmetic substrate: the carriers GF(p^m) and Z/p^m, the
absolute trace map, primality, divisor functions, and the law of every
group family as one central-extension spec.

One class, ``Carrier``, is both carriers: a frozen (p, m, field) whose
elements are the integer codes in ``[0, p^m)``.  A field code's base-p
digits are the coefficients (little-endian) of its polynomial in
GF(p)[x]/(modulus); a ring code is the residue.  Arithmetic is lookup in
add, mul, neg and trace tables built by plain comprehensions on first
use, so a spec may name GF(4096) and report its order without
building a table.  All arithmetic is exact integer arithmetic; no
floating point is used anywhere in this package.

The Pauli, Heisenberg and lifted families, and the reference groups D8,
Q8 and E1(p), are one object: a central extension of R^n x R^n by a
centre C through a bilinear form, given by its carrier R, n, the form
(signed pairs of blocks), the centre (R itself, Z_p through the trace,
or Z_4 through the doubled trace) and the key layout.  The spec,
``CentralExtension``, lists its element keys in the order of its
table's indices, has one scalar ``mul`` (the oracle) and one table
path, ``groupcore.extension_table``: the form as an array, mapped into
the centre, then extended over the centre one block per pair of centre
elements.  ``pauli_spec``, ``heis_spec``, ``lifted_spec`` and
``e1_spec`` only choose the parameters, and ``D8`` and ``Q8`` are specs
themselves; ``pauli_element`` and the named Pauli elements read only a
spec.  No numpy is loaded before a table is built, so a spec that is
refused costs none.

A spec is its law: equality and hash read the carrier, n, the form, the
centre and the key layout, and the name is a label.  At m = 1 the law
is written in one canonical form: Z/p is GF(p), and the trace centre of
GF(p) is the carrier centre.  So H(Z/p^n), H(GF(p)^n) and Hred(GF(p)^n)
are one spec, as are the lifted and Pauli specs for odd p at m = 1.  In
a run a law's group is built once, under the name of the first spec
that asked for it; every command builds the spec it prints first.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import cached_property
from typing import NamedTuple

from .reports import CapError


# Primality is decided by Miller-Rabin on the 13 primes up to 41, which no
# composite below MR_LIMIT passes (Sorenson and Webster, Math. Comp. 86,
# 2017), and is refused with a ``CapError`` from MR_LIMIT on.  prime_power
# keeps trial division below TRIAL_LIMIT, where it is the faster of the two:
# every group order and element order a table can have lies there.
TRIAL_LIMIT = 2 ** 20
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """n >= 2 is a strong probable prime to every base a: with
    n - 1 = 2^s d, d odd, a^d = 1 or a^(2^i d) = -1 mod n for some i < s."""
    if n < 2:
        return False
    if any(n % a == 0 for a in MR_BASES):
        return n in MR_BASES
    if n >= MR_LIMIT:
        raise CapError(f"primality of {n} is decided only below {MR_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1
               or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in MR_BASES)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with p prime, k >= 1 and n = p^k, or None when n is not such
    a power.  Below TRIAL_LIMIT by trial division; from there, the largest
    k whose exact k-th root is prime."""
    if n >= TRIAL_LIMIT:
        for k in range(n.bit_length(), 0, -1):
            r = _iroot(n, k)
            if r ** k == n and is_prime(r):
                return r, k
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
        p += 1
    return (n, 1) if n >= 2 else None


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from
    2^ceil(bits/k), which is at least the root."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def sigma_tau(r: int) -> tuple[int, int]:
    """Return (sum of divisors, number of divisors) of r >= 1."""
    if r < 1:
        raise ValueError(f"sigma_tau requires r >= 1, got {r}")
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    return sum(divisors), len(divisors)


# ---------------------------------------------------------------------------
# the carriers GF(p^m) and Z/p^m
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Carrier:
    """The field GF(p^m) when ``field`` is set, else the ring Z/p^m.

    Elements are the integer codes 0 .. p^m - 1.  In Z/p^m a code is the
    residue itself.  In GF(p^m) its base-p digits, least significant
    first, are the coefficients of a polynomial in x reduced modulo the
    modulus that ``mul_table`` chooses.  The add, mul, neg and trace
    tables are built on first use, so a carrier costs nothing until it
    computes.
    """

    p: int
    m: int
    field: bool

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")
        if self.m < 1:
            raise ValueError(f"exponent must be >= 1, got {self.m}")

    @property
    def size(self) -> int:
        return self.p ** self.m

    @cached_property
    def add_table(self) -> list[list[int]]:
        q = self.size
        if not self.field:
            return [[(x + y) % q for y in range(q)] for x in range(q)]
        p, weights = self.p, [self.p ** i for i in range(self.m)]
        return [[sum((x // w + y // w) % p * w for w in weights)
                 for y in range(q)] for x in range(q)]

    @cached_property
    def mul_table(self) -> list[list[int]]:
        """The multiplication table.  The modulus of GF(p^m) is the first
        monic f of degree m, taken in order of the code of its lower
        coefficients, for which F_p[x]/(f) has no zero divisors: that ring
        is a field exactly when f is irreducible (Lidl and Niederreiter,
        Finite Fields, 1997, ch. 1)."""
        p, m, q = self.p, self.m, self.size
        if not self.field:
            return [[x * y % q for y in range(q)] for x in range(q)]
        for low in range(q):
            mul = self._fold_products(low)
            if all(0 not in row[1:] for row in mul[1:]):
                return mul
        raise RuntimeError(f"no irreducible polynomial of degree {m} "
                           f"over GF({p})")

    def _fold_products(self, low: int) -> list[list[int]]:
        """Multiplication table of F_p[x]/(x^m + low), ``low`` the code of
        the lower coefficients, by shift and fold: b x^(i+1) is b x^i
        shifted up one digit, with the top digit t folded back as -t low,
        and a b is the sum of a_i (b x^i) over the digits a_i of a."""
        p, q, add = self.p, self.size, self.add_table
        top = q // p
        multiples = _multiples(add, low, p)
        fold = [multiples[-t % p] for t in range(p)]
        table = []
        for b in range(q):
            row, shifted = [0], b
            for _ in range(self.m):
                # a = k p^i + j: extend row j by k copies of b x^i
                row = [add[s][v] for s in _multiples(add, shifted, p)
                       for v in row]
                shifted = add[shifted % top * p][fold[shifted // top]]
            table.append(row)
        return table

    @cached_property
    def _neg_table(self) -> list[int]:
        return [row.index(0) for row in self.add_table]

    @cached_property
    def trace_table(self) -> list[int]:
        if not self.field and self.m > 1:
            raise ValueError("trace is only defined on the field Z/p (m=1)")
        add, out = self.add_table, []
        for x in range(self.size):
            t, power = 0, x
            for _ in range(self.m):
                t, power = add[t][power], self.frobenius(power)
            if t >= self.p:
                raise RuntimeError("trace left the prime subfield")
            out.append(t)
        return out

    def neg(self, x: int) -> int:
        return self._neg_table[x]

    def frobenius(self, x: int) -> int:
        y = 1
        for _ in range(self.p):
            y = self.mul_table[y][x]
        return y

    def trace(self, x: int) -> int:
        """Absolute trace tr(x) = x + x^p + ... + x^(p^(m-1)), as a residue
        in [0, p)."""
        return self.trace_table[x]

    def scalar(self, c: int) -> int:
        """The code of the integer c: c mod p in GF(p^m), c mod p^m in
        Z/p^m."""
        return c % (self.p if self.field else self.size)


def _multiples(add: list[list[int]], x: int, p: int) -> list[int]:
    """0, x, 2x, ..., (p-1)x under the addition table ``add``."""
    out = [0]
    for _ in range(p - 1):
        out.append(add[out[-1]][x])
    return out


def field_make(p: int, m: int) -> Carrier:
    """GF(p^m) with the default modulus."""
    return Carrier(p, m, True)


# ---------------------------------------------------------------------------
# central extensions of R^n x R^n: the family laws and D8, Q8, E1(p)
# ---------------------------------------------------------------------------

class Centre(NamedTuple):
    """The centre C of a central extension: ``map`` sends each carrier
    value to an element of C, and ``add`` is the addition table of C.
    Elements of C are the integers 0 .. |C| - 1, with 0 the identity."""

    map: tuple[int, ...]
    add: list[list[int]]


@dataclasses.dataclass(frozen=True)
class CentralExtension:
    """The central extension of R^n x R^n by a centre C through a bilinear
    form on R^(2n):

        (c1, v1)(c2, v2) = (c1 + c2 + centre.map[form(v1, v2)], v1 + v2).

    ``carrier`` is GF(p^m) or Z/p^m.  ``centre`` names C: "carrier" (R
    itself), "trace" (Z_p through the absolute trace) or "doubled_trace"
    (Z_4 through twice the trace, for characteristic 2: the phases i^k,
    with the Z_2-valued trace landing on +-1).  C and the carrier's tables
    are built on first use, so ``order``, equality and hash read no
    table, and a spec too large to build costs nothing; ``name`` is a
    label they ignore (see the module docstring).  A vector v in R^(2n)
    is split into block 0 (its first n coordinates: alpha, or a) and
    block 1 (the last n: beta, or b).  ``form`` is a tuple of signed block
    pairs (sign, left, right), and form(v, w) sums sign * (block left of
    v) . (block right of w) over its terms: ((1, 1, 0),) is b1.a2,
    ((1, 0, 1), (-1, 1, 0)) is a1.b2 - b1.a2.

    Keys are plain-int tuples: (c, alpha, beta) when ``centre_first``,
    else (a, b, c).  ``elements()`` lists them in sorted order, which is
    also the index layout of the table: (c, v) has index c * q^(2n) + v
    when ``centre_first``, else v * |C| + c, with v read as 2n base-q
    digits.  ``mul`` is the scalar oracle; ``groupcore.extension_table``
    builds the same law by whole-array operations."""

    carrier: Carrier
    n: int
    form: tuple[tuple[int, int, int], ...]
    centre: str
    centre_first: bool
    name: str = dataclasses.field(compare=False)

    def __post_init__(self):
        """The m = 1 identities, in one canonical form: Z/p is the field
        GF(p), and the trace of GF(p) is the identity, so its trace centre
        is the carrier centre."""
        if self.carrier.m > 1:
            return
        if not self.carrier.field:
            object.__setattr__(self, "carrier", field_make(self.carrier.p, 1))
        if self.centre == "trace":
            object.__setattr__(self, "centre", "carrier")

    @property
    def centre_order(self) -> int:
        return {"carrier": self.carrier.size, "trace": self.carrier.p,
                "doubled_trace": 4}[self.centre]

    @property
    def order(self) -> int:
        return self.carrier.size ** (2 * self.n) * self.centre_order

    @cached_property
    def centre_law(self) -> Centre:
        r, k = self.carrier, self.centre_order
        if self.centre == "carrier":
            return Centre(tuple(range(k)), r.add_table)
        scale = 2 if self.centre == "doubled_trace" else 1
        return Centre(tuple(scale * t for t in r.trace_table),
                      [[(x + y) % k for y in range(k)] for x in range(k)])

    @cached_property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """(carrier code of the sign, coordinate of v, coordinate of w)
        for each product the form sums."""
        n = self.n
        return tuple((self.carrier.scalar(sign), left * n + i, right * n + i)
                     for sign, left, right in self.form for i in range(n))

    def _split(self, g) -> tuple[int, tuple]:
        """(centre element, the 2n carrier coordinates) of a key."""
        if self.centre_first:
            return g[0], g[1] + g[2]
        return g[2], g[0] + g[1]

    def _join(self, c: int, v: tuple) -> tuple:
        a, b = v[:self.n], v[self.n:]
        return (c, a, b) if self.centre_first else (a, b, c)

    def _cocycle(self, v: tuple, w: tuple) -> int:
        add, mul = self.carrier.add_table, self.carrier.mul_table
        x = 0
        for coeff, i, j in self.terms:
            x = add[x][mul[coeff][mul[v[i]][w[j]]]]
        return self.centre_law.map[x]

    def mul(self, g, h):
        c1, v1 = self._split(g)
        c2, v2 = self._split(h)
        add, cadd = self.carrier.add_table, self.centre_law.add
        v = tuple(add[x][y] for x, y in zip(v1, v2))
        return self._join(cadd[cadd[c1][c2]][self._cocycle(v1, v2)], v)

    def inverse(self, g):
        c, v = self._split(g)
        w = tuple(self.carrier.neg(x) for x in v)
        # g g^-1 = (c + c' + cocycle(v, w), 0) is the identity
        s = self.centre_law.add[c][self._cocycle(v, w)]
        return self._join(self.centre_law.add[s].index(0), w)

    def identity(self):
        return self._join(0, (0,) * (2 * self.n))

    def element(self, a, b, c: int = 0):
        """The key with vector blocks a, b and centre element c."""
        if len(a) != self.n or len(b) != self.n:
            raise ValueError(f"vectors must have length n = {self.n}")
        size = self.carrier.size
        v = tuple(int(x) % size for x in (*a, *b))
        return self._join(int(c) % self.centre_order, v)

    def elements(self) -> list:
        vecs = list(itertools.product(range(self.carrier.size),
                                      repeat=2 * self.n))
        centre = range(self.centre_order)
        if self.centre_first:
            return [self._join(c, v) for c in centre for v in vecs]
        return [self._join(c, v) for v in vecs for c in centre]


PAULI_FORM = ((1, 1, 0),)  # beta1 . alpha2

# the Heisenberg cocycles as signed block pairs (see ``CentralExtension``)
COCYCLES = {
    "symplectic": ((1, 0, 1), (-1, 1, 0)),  # a1.b2 - b1.a2
    "polarized": ((1, 0, 1),),              # a1.b2
}


def pauli_law(field: Carrier, n: int) -> CentralExtension:
    """The phase-space law over any GF(p^m): phases Z_4 through the
    doubled trace for p = 2, Z_p through the trace for odd p.  For p = 2
    and m > 1 this is the law of the lifted projection's image, not a
    Pauli group (see ``pauli_spec``)."""
    centre = "doubled_trace" if field.p == 2 else "trace"
    return CentralExtension(field, n, PAULI_FORM, centre, centre_first=True,
                            name=f"P({n},{field.size})")


def pauli_spec(p: int, m: int, n: int) -> CentralExtension:
    """P_{n,q} with q = p^m."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if p == 2 and m != 1:
        raise ValueError("qubit Pauli groups are defined for q = 2 (m = 1)")
    return pauli_law(field_make(p, m), n)


def pauli_element(spec: CentralExtension, register: int = 0, x: int = 0,
                  z: int = 0, phase: int = 0) -> tuple:
    """w^phase X^x Z^z on one register (w = i for p = 2); Y = iXZ is
    x = z = phase = 1."""
    def unit(e):
        return tuple(e if k == register else 0 for k in range(spec.n))
    return spec.element(unit(x), unit(z), phase)


def p12_named_elements() -> dict[str, tuple]:
    """The standard named elements of the one-qubit Pauli group:
    X, Y, Z, u = XY, a = Y, b = XYZ."""
    s = pauli_spec(2, 1, 1)
    X, Z = pauli_element(s, x=1), pauli_element(s, z=1)
    Y = pauli_element(s, x=1, z=1, phase=1)
    u = s.mul(X, Y)
    b = s.mul(u, Z)
    return {"X": X, "Y": Y, "Z": Z, "u": u, "a": Y, "b": b}


def p22_named_generators() -> dict[str, tuple]:
    """The five order-64 generators X@I, Y@I, Z@I, I@Z, I@X."""
    s = pauli_spec(2, 1, 2)
    return {
        "A": pauli_element(s, 0, x=1),
        "B": pauli_element(s, 0, x=1, z=1, phase=1),
        "C": pauli_element(s, 0, z=1),
        "D": pauli_element(s, 1, z=1),
        "E": pauli_element(s, 1, x=1),
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


def lifted_spec(p: int, m: int, n: int) -> CentralExtension:
    """The lifted Pauli group over GF(p^m) on n registers."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    f = field_make(p, m)
    return CentralExtension(f, n, PAULI_FORM, "carrier", centre_first=True,
                            name=f"Plift({n},{f.size})")


# D8 and Q8: central extensions of GF(2)^2 by GF(2) through the forms
# a1.a2 + b1.a2 and a1.a2 + b1.b2 + b1.a2
D8 = CentralExtension(field_make(2, 1), 1, ((1, 0, 0), (1, 1, 0)), "carrier",
                      centre_first=True, name="D8")
Q8 = CentralExtension(field_make(2, 1), 1, ((1, 0, 0), (1, 1, 1), (1, 1, 0)),
                      "carrier", centre_first=True, name="Q8")


def e1_spec(p: int) -> CentralExtension:
    """E1(p): the extraspecial group of order p^3 and exponent p, the
    polarized Heisenberg group over GF(p), for odd primes p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"e1 requires an odd prime p, got {p}")
    return heis_spec(field_make(p, 1), cocycle="polarized")
