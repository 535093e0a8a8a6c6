"""2x2 supermatrices over a presentation: diagonal even, off-diagonal odd."""

from __future__ import annotations

from .errors import PresentationMismatch
from .nc import invert_even_unit


class SuperMatrix:
    """Square array (a11 a12; a21 a22) of Elements with enforced parity."""

    __slots__ = ("a11", "a12", "a21", "a22", "pres")

    def __init__(self, a11, a12, a21, a22):
        self.pres = a11.pres
        for e in (a12, a21, a22):
            if e.pres is not self.pres:
                raise PresentationMismatch("mixed presentations in supermatrix")
        if a11.parity() not in ("even",) or a22.parity() not in ("even",):
            raise ValueError("diagonal entries must be even")
        if (not a12.is_zero() and a12.parity() != "odd") or \
           (not a21.is_zero() and a21.parity() != "odd"):
            raise ValueError("off-diagonal entries must be odd")
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    @staticmethod
    def identity(pres):
        one, zero = pres.one_elt(), pres.zero_elt()
        return SuperMatrix(one, zero, zero, one)

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def __add__(self, other):
        return SuperMatrix(self.a11 + other.a11, self.a12 + other.a12,
                           self.a21 + other.a21, self.a22 + other.a22)

    def __mul__(self, other):
        return SuperMatrix(self.a11 * other.a11 + self.a12 * other.a21,
                           self.a11 * other.a12 + self.a12 * other.a22,
                           self.a21 * other.a11 + self.a22 * other.a21,
                           self.a21 * other.a12 + self.a22 * other.a22)

    def smul(self, scalar):
        return SuperMatrix(*(e.smul(scalar) for e in self.entries()))

    def map(self, fn):
        return SuperMatrix(*(fn(e) for e in self.entries()))

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self.entries() == other.entries()

    def __repr__(self):
        return f"SuperMatrix({self.a11!r}, {self.a12!r}, {self.a21!r}, {self.a22!r})"


def matrix_power(m, n, inv=invert_even_unit):
    if n == 0:
        return SuperMatrix.identity(m.pres)
    if n < 0:
        return matrix_power(sinverse(m, inv=inv), -n, inv=inv)
    out = m
    for _ in range(n - 1):
        out = out * m
    return out


def sdet(m, inv=invert_even_unit):
    """Superdeterminant a11.a22^-1 - a12.a22^-1.a21.a22^-1."""
    d_inv = inv(m.a22)
    return m.a11 * d_inv - m.a12 * d_inv * m.a21 * d_inv


def sinverse(m, inv=invert_even_unit):
    """Two-sided block inverse; every Schur complement must be an even unit."""
    a, b, c, d = m.a11, m.a12, m.a21, m.a22
    a_inv, d_inv = inv(a), inv(d)
    x = inv(a - b * d_inv * c)
    w = inv(d - c * a_inv * b)
    return SuperMatrix(x, -(a_inv * b * w), -(d_inv * c * x), w)


def crout(m, inv=invert_even_unit):
    """Lower times unitriangular factorization (lower, upper)."""
    a, b, c, d = m.a11, m.a12, m.a21, m.a22
    a_inv = inv(a)
    pres = m.pres
    one, zero = pres.one_elt(), pres.zero_elt()
    lower = SuperMatrix(a, zero, c, d - c * a_inv * b)
    upper = SuperMatrix(one, a_inv * b, zero, one)
    return lower, upper


def sdet_factorizations(m, inv=invert_even_unit):
    """The two superdeterminant forms from the Crout splitting."""
    a, b, c, d = m.a11, m.a12, m.a21, m.a22
    first = a * inv(d - c * inv(a) * b)
    second = (a - b * inv(d) * c) * inv(d)
    return first, second
