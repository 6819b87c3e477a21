"""Cellular complexes and invariants of the model manifolds.

Lens spaces L_{p,q} with their linking forms and homotopy
classification, the mapping tori L x S^1, and the small closed
4-manifolds used as anchors (S^4, CP^2, RP^4, T^4).
"""

import functools
import math

from fourfold.complexes import LambdaComplex, cross_circle, point_complex
from fourfold.errors import InvalidLens, OrderMismatch
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    norm_element,
    ring_generator,
    ring_one,
    trivial_char,
)
from fourfold.values import FrozenValue

__all__ = [
    "LensSpace",
    "units_mod",
    "lens_complex",
    "fundamental_class_invariant",
    "lens_homotopy_equivalent",
    "LinkingForm",
    "linking_form",
    "linking_isometric",
    "lens_times_circle",
    "s4_complex",
    "cp2_complex",
    "rp4_complex",
    "torus4_complex",
]


class LensSpace(FrozenValue):
    __slots__ = ("p", "q")

    def __init__(self, p, q):
        if p < 2:
            raise InvalidLens("need p >= 2")
        if math.gcd(p, q) != 1:
            raise InvalidLens("q must be a unit mod p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self):
        return "L(%d,%d)" % (self.p, self.q)


# Moduli up to this size get a kept table.  Above it the units are listed
# lazily, so a search that stops at its first witness never lists all the
# units of a large modulus (a table for p = 10^9 would not fit in memory).
_UNITS_TABLE_MAX = 1024
# An entry is one tuple of the phi(n) < n units mod n: 210 bytes for
# n <= 30, up to 37 kB near n = 1024, where units above 256 are ints of
# their own (tracemalloc).  128 tables stay under 5 MB.
_UNITS_CACHE_SIZE = 128


def units_mod(n):
    """The units mod n, as the integers 1 <= r < n prime to n, in
    increasing order; for n = 1 the one residue class, written 1.

    For n <= 1024 a tuple, built on the first call for n and kept in a
    bounded cache, so every criterion that searches the units of n reads
    one table, each in the same order.  For larger n a fresh iterator
    over the same sequence.
    """
    if n < 1:
        raise InvalidLens("need a modulus >= 1")
    if n > _UNITS_TABLE_MAX:
        return (r for r in range(1, n) if math.gcd(r, n) == 1)
    return _units_table(n)


@functools.lru_cache(maxsize=_UNITS_CACHE_SIZE)
def _units_table(n):
    return tuple(r for r in range(1, max(n, 2)) if math.gcd(r, n) == 1)


def lens_complex(lens):
    """The standard cellular chain complex of L_{p,q} over Z[Z/p].

    Ranks (1,1,1,1); d_1 = t - 1, d_2 = N, d_3 = t^e - 1 where e is the
    inverse of q mod p.  This normalization makes the top boundary carry
    the chosen identification of the fundamental class.
    """
    g = cyclic_group(lens.p)
    t = ring_generator(g, 0)
    one = ring_one(g)
    e = pow(lens.q, -1, lens.p)
    d1 = RingMatrix(g, 1, 1, [[t - one]])
    d2 = RingMatrix(g, 1, 1, [[norm_element(g)]])
    d3 = RingMatrix(g, 1, 1, [[ring_generator(g, 0, e) - one]])
    return LambdaComplex(g, trivial_char(g), (1, 1, 1, 1), (d1, d2, d3))


def fundamental_class_invariant(lens):
    """Image of the fundamental class in H_3 of the group: q^{-1} mod p."""
    return pow(lens.q, -1, lens.p)


def lens_homotopy_equivalent(p, q1, q2):
    """Oriented homotopy classification: q2 = +- r^2 q1 mod p.

    Returns (equivalent, r, sign) with the smallest witnessing unit, or
    (False, None, None).  The two directions of the relation are
    equivalent (replace r by its inverse); the witness is reported for
    the second parameter in terms of the first.
    """
    _check_pair(p, q1, q2)
    for r in units_mod(p):
        rr = r * r % p
        if (q2 - rr * q1) % p == 0:
            return True, r, 1
        if (q2 + rr * q1) % p == 0:
            return True, r, -1
    return False, None, None


class LinkingForm(FrozenValue):
    """The form (x, y) -> -value * x * y / order on Z/order."""

    __slots__ = ("order", "value")

    def __init__(self, order, value):
        if order < 2:
            raise InvalidLens("need order >= 2")
        if math.gcd(order, value) != 1:
            raise InvalidLens("linking form value must be a unit")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "value", value)

    def evaluate_num(self, x, y):
        """Numerator of the value on (x, y), i.e. -value*x*y mod order."""
        return (-self.value * x * y) % self.order


def linking_form(lens):
    return LinkingForm(lens.p, lens.q % lens.p)


def linking_isometric(f1, f2):
    """Isometry up to sign: f2.value = +- u^2 f1.value mod order.

    Returns (isometric, u, sign) with a witnessing unit.
    """
    if f1.order != f2.order:
        raise OrderMismatch("forms on Z/%d and Z/%d" % (f1.order, f2.order))
    p = f1.order
    for u in units_mod(p):
        uu = u * u % p
        if (f2.value - uu * f1.value) % p == 0:
            return True, u, 1
        if (f2.value + uu * f1.value) % p == 0:
            return True, u, -1
    return False, None, None


def lens_times_circle(lens):
    """The 4-manifold L_{p,q} x S^1 over Z[Z/p x Z]."""
    return cross_circle(lens_complex(lens))


def s4_complex():
    """S^4: one 0-cell and one 4-cell over the trivial group."""
    base = point_complex()
    g = base.group
    w = base.w
    z01 = RingMatrix.zeros(g, 1, 0)
    z00 = RingMatrix.zeros(g, 0, 0)
    z10 = RingMatrix.zeros(g, 0, 1)
    return LambdaComplex(g, w, (1, 0, 0, 0, 1), (z01, z00, z00, z10))


def cp2_complex():
    """CP^2: cells in degrees 0, 2, 4 over the trivial group."""
    base = point_complex()
    g = base.group
    w = base.w
    return LambdaComplex(
        g,
        w,
        (1, 0, 1, 0, 1),
        (
            RingMatrix.zeros(g, 1, 0),
            RingMatrix.zeros(g, 0, 1),
            RingMatrix.zeros(g, 1, 0),
            RingMatrix.zeros(g, 0, 1),
        ),
    )


def rp4_complex():
    """RP^4 over Z[Z/2] with the orientation character sending t to -1."""
    g = cyclic_group(2)
    t = ring_generator(g, 0)
    one = ring_one(g)
    minus = RingMatrix(g, 1, 1, [[t - one]])
    plus = RingMatrix(g, 1, 1, [[t + one]])
    w = char_from_signs(g, (-1,))
    return LambdaComplex(g, w, (1, 1, 1, 1, 1), (minus, plus, minus, plus))


def torus4_complex():
    """T^4 as the four-fold circle product of a point."""
    c = point_complex()
    for _ in range(4):
        c = cross_circle(c)
    return c


def _check_pair(p, q1, q2):
    if p < 2:
        raise InvalidLens("need p >= 2")
    if math.gcd(p, q1) != 1 or math.gcd(p, q2) != 1:
        raise InvalidLens("q parameters must be units mod p")
