"""Exact arithmetic substrate: the carriers GF(p^m) and Z/p^m, the
absolute trace map, primality, and divisor functions.

One class, ``Carrier``, is both carriers: a frozen (p, m, field) whose
elements are the integer codes in ``[0, p^m)``.  A field code's base-p
digits are the coefficients (little-endian) of its polynomial in
GF(p)[x]/(modulus); a ring code is the residue.  Arithmetic is lookup in
add, mul, neg and trace tables built by plain comprehensions on first
use, so a spec may name GF(4096) and report its order without
building a table.  All arithmetic is exact integer arithmetic; no
floating point is used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

@dataclass(frozen=True)
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
