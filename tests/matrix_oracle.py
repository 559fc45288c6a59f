"""Exact matrices over the cyclotomic integers Z[w_N], and the Pauli
matrix oracle built from them.

Ring elements are integer coefficient tuples reduced modulo the N-th
cyclotomic polynomial, so equality is canonical-representative comparison
and matrix products are bit-exact.  These matrices serve as the
independent oracle for the phase-space group arithmetic: the shift/clock
unitaries live here with no floating point.  Only the tests use them; no
command does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from paulidecomp.groupcore import CentralExtension
from paulidecomp.pauli import PauliKey


def _int_poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _int_poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    # b monic; exact integer long division
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
    while a and a[-1] == 0:
        a.pop()
    return q, a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (little-endian, monic) of the n-th cyclotomic polynomial,
    computed by exact division of x^n - 1 by the proper-divisor factors."""
    if n == 1:
        return (-1, 1)
    num = [0] * n + [1]
    num[0] = -1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _int_poly_mul(tuple(den), cyclotomic_polynomial(d))
    q, r = _int_poly_divmod(num, den)
    if r:
        raise RuntimeError(f"cyclotomic division left a remainder for n={n}")
    return tuple(q)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1) if n > 1 else 1


def _reduce(coeffs, n: int) -> tuple[int, ...]:
    """Canonical representative of a Z[x] element in Z[x]/(Phi_n), padded
    to degree phi(n)-1."""
    deg = _phi_degree(n)
    _, r = _int_poly_divmod(list(coeffs), list(cyclotomic_polynomial(n)))
    r = r + [0] * (deg - len(r))
    return tuple(r)


def zeta_power(n: int, k: int) -> tuple[int, ...]:
    """w_n^k as a reduced element of Z[w_n]."""
    k %= n
    return _reduce((0,) * k + (1,), n)


def _ring_mul(a, b, n):
    return _reduce(_int_poly_mul(tuple(a), tuple(b)), n)


@dataclass(frozen=True)
class CyclotomicMatrix:
    """A dim x dim matrix over Z[w_order], entries fully reduced mod the
    cyclotomic polynomial.  Hashable, with canonical equality."""

    order: int
    dim: int
    entries: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def from_rows(cls, order: int, rows) -> "CyclotomicMatrix":
        dim = len(rows)
        ent = tuple(tuple(_reduce(e, order) for e in row) for row in rows)
        if any(len(row) != dim for row in ent):
            raise ValueError("matrix must be square")
        return cls(order, dim, ent)

    @classmethod
    def identity(cls, order: int, dim: int) -> "CyclotomicMatrix":
        one = _reduce((1,), order)
        zero = _reduce((), order)
        rows = tuple(tuple(one if i == j else zero for j in range(dim))
                     for i in range(dim))
        return cls(order, dim, rows)

    def __matmul__(self, other: "CyclotomicMatrix") -> "CyclotomicMatrix":
        if self.order != other.order:
            raise ValueError("root-of-unity orders differ")
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        n, d = self.order, self.dim
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = []
                for k in range(d):
                    term = _int_poly_mul(self.entries[i][k], other.entries[k][j])
                    if len(acc) < len(term):
                        acc, term = term, acc
                    for t, c in enumerate(term):
                        acc[t] += c
                row.append(_reduce(acc, n))
            rows.append(tuple(row))
        return CyclotomicMatrix(n, d, tuple(rows))

    def scale(self, k: int) -> "CyclotomicMatrix":
        """Multiply every entry by w^k."""
        z = zeta_power(self.order, k)
        rows = tuple(tuple(_ring_mul(e, z, self.order) for e in row)
                     for row in self.entries)
        return CyclotomicMatrix(self.order, self.dim, rows)

    def kron(self, other: "CyclotomicMatrix") -> "CyclotomicMatrix":
        if self.order != other.order:
            raise ValueError("root-of-unity orders differ")
        n = self.order
        d1, d2 = self.dim, other.dim
        rows = []
        for i1 in range(d1):
            for i2 in range(d2):
                row = []
                for j1 in range(d1):
                    for j2 in range(d2):
                        row.append(_ring_mul(self.entries[i1][j1],
                                             other.entries[i2][j2], n))
                rows.append(tuple(row))
        return CyclotomicMatrix(n, d1 * d2, tuple(rows))


# ---------------------------------------------------------------------------
# Pauli matrix oracle
# ---------------------------------------------------------------------------

def _single_register_matrix(spec: CentralExtension, a: int,
                            b: int) -> CyclotomicMatrix:
    """X^a Z^b on one q-dimensional register, over Z[w_N] with N = 4 for
    p = 2 and N = p for odd p (trace character for m > 1)."""
    f = spec.carrier
    q = f.size
    N = 4 if f.p == 2 else f.p
    scale = 2 if f.p == 2 else 1  # embed Z_2-valued characters into w_4
    rows = []
    for i in range(q):       # row index: output basis vector
        row = []
        for j in range(q):   # column index: input basis vector
            # X^a Z^b |j> = chi(b*j) |j+a>
            if i == f.add(j, a):
                chi = f.trace(f.mul(b, j)) * scale
                row.append(tuple([0] * (chi % N)) + (1,))
            else:
                row.append(())
        rows.append(tuple(row))
    return CyclotomicMatrix.from_rows(N, rows)


def pauli_matrix_oracle(spec: CentralExtension,
                        g: PauliKey) -> CyclotomicMatrix:
    """Exact q^n x q^n matrix over Z[w] realizing g.  This is the
    independent oracle: tests check the map is a faithful homomorphism."""
    if spec.carrier.size ** spec.n > 9:
        raise ValueError("matrix oracle limited to q^n <= 9")
    mat = _single_register_matrix(spec, g[1][0], g[2][0])
    for k in range(1, spec.n):
        mat = mat.kron(_single_register_matrix(spec, g[1][k], g[2][k]))
    return mat.scale(g[0])
