"""The independent oracles the tests compare the library against; no
command uses them.

* ``tabulate``: the index table of a scalar multiplication law, one call
  per pair, the reference for every whole-array table.
* Exact matrices over the cyclotomic integers Z[w_N], and the Pauli
  matrix oracle built from them.  Ring elements are integer coefficient
  tuples reduced modulo the N-th cyclotomic polynomial, so equality is
  canonical-representative comparison and matrix products are bit-exact:
  the shift/clock unitaries live here with no floating point.
* The unitriangular matrix models of the lifted and Heisenberg groups,
  and the check that the lifted projection is a homomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from paulidecomp.groupcore import CentralExtension, GroupStructureError
from paulidecomp.heisenberg import heis_spec
from paulidecomp.lifted import pi_map
from paulidecomp.pauli import PauliKey, pauli_law


def tabulate(elements, mul) -> np.ndarray:
    """Index multiplication table of ``elements`` under the scalar oracle
    ``mul``: one oracle call per pair."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    table = np.empty((len(elements), len(elements)), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            k = index.get(mul(a, b))
            if k is None:
                raise GroupStructureError(
                    "multiplication left the element set: not closed")
            table[i, j] = k
    return table


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


# ---------------------------------------------------------------------------
# lifted matrix model and projection
# ---------------------------------------------------------------------------

def lifted_matrix(spec: CentralExtension, g):
    """(n+2)x(n+2) unitriangular matrix over GF(q) of the lifted key
    g = (eta, alpha, beta), row vector first.  The alpha <-> beta swap
    aligns the matrix cross term a1.b2 with the phase-space cross term
    b1.a2 used by ``mul``."""
    n = spec.n
    size = n + 2
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 1
    for k in range(n):
        rows[0][1 + k] = g[2][k]
        rows[1 + k][size - 1] = g[1][k]
    rows[0][size - 1] = g[0]
    return tuple(tuple(r) for r in rows)


def lifted_matrix_mul(spec: CentralExtension, m1, m2):
    f = spec.carrier
    size = spec.n + 2
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = 0
            for k in range(size):
                acc = f.add(acc, f.mul(m1[i][k], m2[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def pi_is_homomorphism(spec: CentralExtension) -> bool:
    """Check Pi(gh) = Pi(g)Pi(h) against the product of ``pauli_law`` for
    every pair g, h."""
    tmul = pauli_law(spec.carrier, spec.n).mul
    els = spec.elements()
    for g, h in itertools.product(els, els):
        if pi_map(spec, spec.mul(g, h)) != tmul(pi_map(spec, g), pi_map(spec, h)):
            return False
    return True


# ---------------------------------------------------------------------------
# Heisenberg matrix model (characteristic != 2)
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


def phi_map(spec: CentralExtension, g):
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
