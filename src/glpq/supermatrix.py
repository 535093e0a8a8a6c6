"""2x2 supermatrices over a presentation: diagonal even, off-diagonal odd.

Shared products.  The superdeterminant of m = (A B; C D), its two Crout
forms, the Crout pair and the block inverse all read the same pieces:
A^-1, D^-1, A^-1.B, D^-1.C and the Schur products C.A^-1.B, B.D^-1.C.
A :class:`Schur` makes each piece on first read and keeps it, so a
caller that needs several of these results of one matrix, as the power
suite of tside does for every T^n, inverts A and D once.  Reusing a
piece cannot change a result.  The entries are exact normal forms,
which are canonical, and a product is a function of its operands, so a
kept piece equals the one it replaces, and (X.Y).Z and X.(Y.Z) are one
normal form.  Unlike in the series sector there is no weight window
here, so neither the order of the products nor which of them are shared
shows in any result.
"""

from __future__ import annotations

from functools import cached_property

from .errors import PresentationMismatch
from .nc import invert_even_unit
from .poly import power_table


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

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self.entries() == other.entries()

    def __repr__(self):
        return f"SuperMatrix({self.a11!r}, {self.a12!r}, {self.a21!r}, {self.a22!r})"


def matrix_power(m, n):
    """m^n from the successive-product table of m, or of sinverse(m)
    for n < 0."""
    if n == 0:
        return SuperMatrix.identity(m.pres)
    if n < 0:
        m, n = sinverse(m), -n
    return power_table(m, n)[n]


class Schur:
    """The pieces of m = (A B; C D) that :func:`sdet`, the Crout forms,
    the Crout pair and :func:`sinverse` read, each made on first read and
    kept (see the module docstring).  ``inv`` inverts an even unit; each
    inverse that is read (of A, D and the two Schur complements) must
    exist."""

    def __init__(self, m, inv=invert_even_unit):
        self.m = m
        self.inv = inv

    @cached_property
    def a_inv(self):
        return self.inv(self.m.a11)

    @cached_property
    def d_inv(self):
        return self.inv(self.m.a22)

    @cached_property
    def a_inv_b(self):
        return self.a_inv * self.m.a12

    @cached_property
    def d_inv_c(self):
        return self.d_inv * self.m.a21

    @cached_property
    def b_d_inv_c(self):
        return self.m.a12 * self.d_inv_c

    @cached_property
    def d_minus_cab(self):
        """D - C.A^-1.B, the Schur complement of A."""
        return self.m.a22 - self.m.a21 * self.a_inv_b

    @cached_property
    def a_minus_bdc(self):
        """A - B.D^-1.C, the Schur complement of D."""
        return self.m.a11 - self.b_d_inv_c

    @cached_property
    def d_minus_cab_inv(self):
        return self.inv(self.d_minus_cab)

    @cached_property
    def a_minus_bdc_inv(self):
        return self.inv(self.a_minus_bdc)

    @cached_property
    def sdet(self):
        """Superdeterminant a11.a22^-1 - a12.a22^-1.a21.a22^-1."""
        return self.m.a11 * self.d_inv - self.b_d_inv_c * self.d_inv

    def factorizations(self):
        """The two superdeterminant forms from the Crout splitting,
        A.(D - C.A^-1.B)^-1 and (A - B.D^-1.C).D^-1."""
        return (self.m.a11 * self.d_minus_cab_inv,
                self.a_minus_bdc * self.d_inv)

    def crout(self):
        """Lower times unitriangular factorization (lower, upper)."""
        m = self.m
        one, zero = m.pres.one_elt(), m.pres.zero_elt()
        return (SuperMatrix(m.a11, zero, m.a21, self.d_minus_cab),
                SuperMatrix(one, self.a_inv_b, zero, one))


def sdet(m, inv=invert_even_unit):
    """Superdeterminant a11.a22^-1 - a12.a22^-1.a21.a22^-1."""
    return Schur(m, inv).sdet


def sinverse(m):
    """Two-sided block inverse of a SuperMatrix, or of the matrix of a
    :class:`Schur` ``m``, whose pieces (and ``inv``) it then reads; every
    Schur complement must be an even unit."""
    s = m if isinstance(m, Schur) else Schur(m)
    x, w = s.a_minus_bdc_inv, s.d_minus_cab_inv
    return SuperMatrix(x, -(s.a_inv_b * w), -(s.d_inv_c * x), w)
