"""Exact arithmetic substrate: prime fields, extension fields GF(p^m),
residue rings Z/p^k, the absolute trace map, and divisor functions.

Field elements are encoded as integers in ``[0, p^m)`` whose base-p digits
are the coefficients (little-endian) of the representative polynomial in
the quotient ring GF(p)[x]/(modulus).  All arithmetic is exact integer
arithmetic; no floating point is used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with p prime, k >= 1 and n = p^k, or None when n is not such
    a power."""
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


def sigma_tau(r: int) -> tuple[int, int]:
    """Return (sum of divisors, number of divisors) of r >= 1."""
    if r < 1:
        raise ValueError(f"sigma_tau requires r >= 1, got {r}")
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    return sum(divisors), len(divisors)


# ---------------------------------------------------------------------------
# polynomials over GF(p), little-endian coefficient lists
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and _poly_trim(list(a)):
        a = _poly_trim(a)
        if len(a) - 1 < dm:
            break
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * c) % p
        a = _poly_trim(a)
    return a


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division: monic poly of degree m is irreducible over GF(p)
    iff it has no monic factor of degree in [1, m//2]."""
    m = len(poly) - 1
    if m < 1:
        return False
    for deg in range(1, m // 2 + 1):
        # all monic polynomials of given degree
        for k in range(p ** deg):
            cand = []
            kk = k
            for _ in range(deg):
                cand.append(kk % p)
                kk //= p
            cand.append(1)
            if not _poly_mod(poly, cand, p):
                return False
    # degree-1 factors are covered above for m >= 2; for m == 1 any monic
    # linear polynomial is irreducible
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible polynomial of degree m
    over GF(p), as a little-endian coefficient tuple of length m+1."""
    for k in range(p ** m):
        coeffs = []
        kk = k
        for _ in range(m):
            coeffs.append(kk % p)
            kk //= p
        poly = coeffs + [1]
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """The field GF(p^m) with a fixed monic irreducible modulus.

    Elements are plain integers in [0, p^m) (base-p digit encoding of the
    coefficient vector).  Operation tables are precomputed once, so element
    arithmetic is table lookup.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")
        if self.m < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.m}")
        if len(self.modulus) != self.m + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if not _poly_is_irreducible(list(self.modulus), self.p):
            raise ValueError(
                f"modulus {self.modulus} is reducible over GF({self.p})")

    @property
    def q(self) -> int:
        return self.p ** self.m

    @property
    def size(self) -> int:
        return self.q

    def coeffs(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) != self.m:
            raise ValueError(f"need {self.m} coefficients, got {len(coeffs)}")
        val = 0
        for c in reversed(coeffs):
            val = val * self.p + (c % self.p)
        return val

    @cached_property
    def _tables(self) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
        p, m, q = self.p, self.m, self.q
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        neg = [0] * q
        for x in range(q):
            cx = self.coeffs(x)
            neg[x] = self.encode([(-c) % p for c in cx])
            for y in range(x, q):
                cy = self.coeffs(y)
                s = self.encode([(a + b) % p for a, b in zip(cx, cy)])
                add[x][y] = add[y][x] = s
                prod = _poly_mod(_poly_mul(list(cx), list(cy), p),
                                 list(self.modulus), p)
                prod = prod + [0] * (m - len(prod))
                v = self.encode(prod)
                mul[x][y] = mul[y][x] = v
        inv = [0] * q
        for x in range(1, q):
            for y in range(1, q):
                if mul[x][y] == 1:
                    inv[x] = y
                    break
            else:
                raise RuntimeError(f"no inverse for {x}: modulus not irreducible?")
        return add, mul, neg, inv

    @property
    def add_table(self) -> list[list[int]]:
        return self._tables[0]

    @property
    def mul_table(self) -> list[list[int]]:
        return self._tables[1]

    def add(self, x: int, y: int) -> int:
        return self._tables[0][x][y]

    def mul(self, x: int, y: int) -> int:
        return self._tables[1][x][y]

    def neg(self, x: int) -> int:
        return self._tables[2][x]

    def sub(self, x: int, y: int) -> int:
        return self._tables[0][x][self._tables[2][y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in a field")
        return self._tables[3][x]

    def pow(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv(x), -k
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            k >>= 1
        return out

    def frobenius(self, x: int) -> int:
        return self.pow(x, self.p)

    def scalar(self, c: int) -> int:
        """Embed the prime-field residue c into GF(p^m)."""
        return self.encode([c % self.p] + [0] * (self.m - 1))

    @cached_property
    def trace_table(self) -> list[int]:
        out = []
        for x in range(self.q):
            t = 0
            xi = x
            for _ in range(self.m):
                t = self.add(t, xi)
                xi = self.frobenius(xi)
            c = self.coeffs(t)
            if any(c[1:]):
                raise RuntimeError("trace left the prime subfield")
            out.append(c[0])
        return out

    def trace(self, x: int) -> int:
        """Absolute trace tr(x) = x + x^p + ... + x^(p^(m-1)), as a residue
        in [0, p)."""
        return self.trace_table[x]

    def elements(self) -> list[int]:
        return list(range(self.q))


def field_make(p: int, m: int, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct GF(p^m) with the deterministic default modulus (or, when
    given, an explicit one, verified irreducible)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime; fields require prime characteristic")
    if modulus is None:
        modulus = default_modulus(p, m)
    return FieldSpec(p, m, tuple(modulus))


# ---------------------------------------------------------------------------
# residue rings Z/p^k
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZmodRing:
    """The ring Z/p^k.  Elements are integers in [0, p^k)."""

    p: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")
        if self.k < 1:
            raise ValueError(f"exponent must be >= 1, got {self.k}")

    @property
    def size(self) -> int:
        return self.p ** self.k

    @property
    def m(self) -> int:
        return self.k

    @cached_property
    def add_table(self) -> list[list[int]]:
        s = self.size
        return [[(x + y) % s for y in range(s)] for x in range(s)]

    @cached_property
    def mul_table(self) -> list[list[int]]:
        s = self.size
        return [[x * y % s for y in range(s)] for x in range(s)]

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.size

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.size

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.size

    def neg(self, x: int) -> int:
        return (-x) % self.size

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError(f"{x} is not a unit in Z/{self.size}")
        return pow(x, -1, self.size)

    def trace(self, x: int) -> int:
        if self.k != 1:
            raise ValueError("trace is only defined on the field Z/p (k=1)")
        return x % self.p

    def scalar(self, c: int) -> int:
        return c % self.size

    def elements(self) -> list[int]:
        return list(range(self.size))
