"""Cellular complexes and invariants of the model manifolds.

Lens spaces L_{p,q} with their linking forms and homotopy
classification, the mapping tori L x S^1, and the small closed
4-manifolds used as anchors (S^4, CP^2, RP^4, T^4), each built from the
pieces of complexes: zero complexes, periodic complexes, circle products.
"""

import itertools
import math

from fourfold.complexes import LambdaComplex, cross_circle, periodic_complex, point_complex, zero_complex
from fourfold.errors import BudgetExceeded, InvalidLens, OrderMismatch, generator_budget
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    ring_generator,
    ring_one,
    trivial_char,
    trivial_group,
)
from fourfold.values import FrozenValue

__all__ = [
    "LensSpace",
    "units_mod",
    "squares_mod",
    "square_walk",
    "signed_square_witness",
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


def units_mod(n):
    """The units mod n, as the integers 1 <= r < n prime to n, in
    increasing order; for n = 1 the one residue class, written 1.

    A fresh lazy iterator on every call, so a search that stops at its
    first witness never lists all the units of a large modulus (a list
    for p = 10^9 would not fit in memory).
    """
    if n < 1:
        raise InvalidLens("need a modulus >= 1")
    return (r for r in range(1, max(n, 2)) if math.gcd(r, n) == 1)


def squares_mod(n):
    """The multiplicative squares of units mod n, in increasing order: the
    built-in orbit generators for cyclic degree-4 homology.  A fresh
    tuple on every call."""
    if n <= 1:
        return (1,)
    return tuple(sorted({r * r % n for r in units_mod(n)}))


def lens_complex(lens):
    """The standard cellular chain complex of L_{p,q} over Z[Z/p].

    Ranks (1,1,1,1); d_1 = t - 1, d_2 = N, d_3 = t^e - 1 where e is the
    inverse of q mod p.  This normalization makes the top boundary carry
    the chosen identification of the fundamental class.
    """
    g = cyclic_group(lens.p)
    low = periodic_complex(g, 0, 2, trivial_char(g))
    d3 = RingMatrix(g, 1, 1, [[ring_generator(g, 0, pow(lens.q, -1, lens.p)) - ring_one(g)]])
    return LambdaComplex(g, low.w, (1, 1, 1, 1), low.boundaries + (d3,))


def fundamental_class_invariant(lens):
    """Image of the fundamental class in H_3 of the group: q^{-1} mod p."""
    return pow(lens.q, -1, lens.p)


def square_walk(p):
    """The walk of the lens criteria: (r, r^2 mod p) for each unit r in
    the order of units_mod, lazily.

    Its need is known only as it walks, so it charges the budget itself:
    after budget units with units still left, it raises BudgetExceeded
    instead of walking every unit of a huge modulus.  The witness search
    below stops at its first witness; classify walks every unit of a
    modulus once to fill its table of witnesses."""
    budget = generator_budget()
    units = units_mod(p)
    for r in itertools.islice(units, budget):
        yield r, r * r % p
    if next(units, None) is not None:
        raise BudgetExceeded(
            "witness search mod %d has no witness in its first %d units, budget %d" % (p, budget, budget)
        )


def signed_square_witness(p, x):
    """Is x = +-r^2 mod p for a unit r?  Returns (True, r, sign) with the
    first such unit in the order of units_mod and x = sign * r^2, or
    (False, None, None).

    This is the one congruence of the lens criteria: homotopy
    equivalence, linking-form isometry and the signed-square relation of
    the classes each ask it of the ratio of their two parameters.  It
    keeps no memo, and it reads square_walk up to the first witness, so
    it is charged as that walk is (classify keeps a table of the whole
    walk per modulus and budget)."""
    minus_x = -x % p
    for r, rr in square_walk(p):
        if rr == x:
            return True, r, 1
        if rr == minus_x:
            return True, r, -1
    return False, None, None


def lens_homotopy_equivalent(p, q1, q2):
    """Oriented homotopy classification: q2 = +- r^2 q1 mod p.

    Returns (equivalent, r, sign) with the smallest witnessing unit, or
    (False, None, None).  The two directions of the relation are
    equivalent (replace r by its inverse); the witness is reported for
    the second parameter in terms of the first.  The relation holds for
    (q1, q2) exactly when it holds for (1, q2 q1^-1), with the same
    witnesses, so it is the signed_square_witness of that ratio.  The
    pair is validated as two LensSpaces.
    """
    LensSpace(p, q1)
    LensSpace(p, q2)
    return signed_square_witness(p, q2 * pow(q1, -1, p) % p)


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

    Returns (isometric, u, sign) with a witnessing unit: the
    signed_square_witness of the order and f2.value / f1.value.
    """
    if f1.order != f2.order:
        raise OrderMismatch("forms on Z/%d and Z/%d" % (f1.order, f2.order))
    p = f1.order
    return signed_square_witness(p, f2.value * pow(f1.value, -1, p) % p)


def lens_times_circle(lens):
    """The 4-manifold L_{p,q} x S^1 over Z[Z/p x Z]."""
    return cross_circle(lens_complex(lens))


def s4_complex():
    """S^4: one 0-cell and one 4-cell over the trivial group."""
    g = trivial_group()
    return zero_complex(g, trivial_char(g), (1, 0, 0, 0, 1))


def cp2_complex():
    """CP^2: cells in degrees 0, 2, 4 over the trivial group."""
    g = trivial_group()
    return zero_complex(g, trivial_char(g), (1, 0, 1, 0, 1))


def rp4_complex():
    """RP^4 over Z[Z/2] with the orientation character sending t to -1."""
    g = cyclic_group(2)
    return periodic_complex(g, 0, 4, char_from_signs(g, (-1,)))


def torus4_complex():
    """T^4 as the four-fold circle product of a point."""
    c = point_complex()
    for _ in range(4):
        c = cross_circle(c)
    return c

