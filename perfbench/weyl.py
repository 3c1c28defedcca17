"""Closed-form lattice-point counts, written apart from polyptych.

The integer points of the k-dilated order polytope of a Gelfand-Tsetlin
family are Gelfand-Tsetlin patterns (type A) or symplectic patterns
(type C), so their number is the Weyl dimension of the GL_{n+1} or Sp_{2n}
representation with highest weight k*lam.  The transfer bijection carries
that count to every chart.
"""

from __future__ import annotations

from fractions import Fraction


def gl_dimension(lam, k=1):
    """dim of the GL_{len(lam)} irrep with highest weight k*lam."""
    mu = sorted(k * v for v in lam)
    out = Fraction(1)
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            out *= Fraction(mu[j] - mu[i] + j - i, j - i)
    return _integer(out)


def sp_dimension(lam, k=1):
    """dim of the Sp_{2n} irrep with highest weight k*lam, n = len(lam)."""
    n = len(lam)
    a = sorted((k * v for v in lam), reverse=True)
    l = [a[i] + n - i for i in range(n)]  # a + rho, rho = (n, ..., 1)
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(l[i], n - i)
        for j in range(i + 1, n):
            out *= Fraction((l[i] - l[j]) * (l[i] + l[j]),
                            (j - i) * (2 * n - i - j))
    return _integer(out)


def dimension(family, lam, k=1):
    return gl_dimension(lam, k) if family == "A" else sp_dimension(lam, k)


def unmarked_count(family, n):
    """d, the number of unmarked elements of the triangular family; the
    lattice has 2^d charts."""
    return n * (n + 1) // 2 if family == "A" else n * n


def _integer(q):
    if q.denominator != 1:
        raise ArithmeticError(f"Weyl dimension {q} is not an integer")
    return q.numerator
