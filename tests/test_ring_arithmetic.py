"""Ring arithmetic on reduced terms gives the terms the old arithmetic gave.

The functions and classes below are frozen copies of GroupDescriptor.reduce
and mul, RingElement.__init__, __add__, __neg__ and __mul__, and
RingMatrix.__mul__ as they were before ring operations built their results
on already reduced terms: every product key reduced twice, every sum
re-reduced through the public constructor, and each matrix entry rebuilt
as a growing sum.  involute and twist are copied the same way.  The new
code must store the same terms dict for every operation, keep every key
reduced and drop every zero coefficient.
"""

import itertools
import random

import pytest

from fourfold.errors import GroupMismatch
from fourfold.groupring import (
    RingElement,
    RingMatrix,
    char_from_signs,
    cyclic_group,
    laurent_extension,
    product_group,
    trivial_group,
)


# ---- frozen reference: the arithmetic as it was -----------------------------


def ref_reduce(group, el):
    if len(el) != group.ngens:
        raise GroupMismatch("element of length %d in group with %d generators" % (len(el), group.ngens))
    return tuple(
        e % o if i < len(group.orders) else e
        for i, (e, o) in enumerate(zip(el, group.orders + (0,) * group.laurent_rank))
    )


def ref_mul(group, a, b):
    return ref_reduce(group, tuple(x + y for x, y in zip(a, b)))


class RefElement:
    __slots__ = ("group", "terms")

    def __init__(self, group, terms):
        self.group = group
        clean = {}
        for el, c in terms.items():
            if c:
                key = ref_reduce(group, el)
                c2 = clean.get(key, 0) + c
                if c2:
                    clean[key] = c2
                elif key in clean:
                    del clean[key]
        self.terms = clean

    def __add__(self, other):
        terms = dict(self.terms)
        for el, c in other.terms.items():
            terms[el] = terms.get(el, 0) + c
        return RefElement(self.group, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RefElement(self.group, {el: -c for el, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return RefElement(self.group, {el: c * other for el, c in self.terms.items()})
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = ref_mul(self.group, a, b)
                terms[key] = terms.get(key, 0) + ca * cb
        return RefElement(self.group, terms)

    def involute(self):
        return RefElement(self.group, {ref_reduce(self.group, tuple(-x for x in el)): c for el, c in self.terms.items()})

    def twist(self, w):
        return RefElement(self.group, {el: c * w.sign(el) for el, c in self.terms.items()})


def ref_matrix_mul(a_entries, b_entries, group):
    """RingMatrix.__mul__ as it was, on lists of rows of RefElements."""
    rows, inner, cols = len(a_entries), len(b_entries), len(b_entries[0]) if b_entries else 0
    z = RefElement(group, {})
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = z
            for k in range(inner):
                a = a_entries[i][k]
                b = b_entries[k][j]
                if a.terms and b.terms:
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


# ---- cases ------------------------------------------------------------------


GROUPS = {
    "trivial": trivial_group(),
    "Z/5": cyclic_group(5),
    "Z/2xZ/3": product_group((2, 3)),
    "Z/2xZ/2xZ/4": product_group((2, 2, 4)),
    "Z^2": laurent_extension(trivial_group(), 2),
    "Z/3xZ": laurent_extension(cyclic_group(3), 1),
    "Z/2xZ/2xZ^2": laurent_extension(product_group((2, 2)), 2),
}


def _raw_exponents(group, rng):
    """An exponent tuple with finite coordinates anywhere in [-2n, 2n)
    and Laurent coordinates of either sign."""
    fin = tuple(rng.randrange(-2 * o, 2 * o) for o in group.orders)
    return fin + tuple(rng.randint(-3, 3) for _ in range(group.laurent_rank))


def _raw_terms(group, rng):
    """Unreduced terms, some with coefficient 0, some that cancel once
    reduced: half the time the first exponent, shifted by the order of
    the first finite coordinate, is added with the opposite coefficient."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[_raw_exponents(group, rng)] = rng.randint(-3, 3)
    if terms and rng.random() < 0.5:
        el, c = next(iter(terms.items()))
        if group.orders:
            terms[(el[0] + group.orders[0],) + el[1:]] = -c
    return terms


def _pair(group, rng):
    raw = _raw_terms(group, rng)
    return RingElement(group, raw), RefElement(group, raw)


def assert_same(new, ref):
    group = new.group
    assert new.terms == ref.terms
    for el, c in new.terms.items():
        assert el == ref_reduce(group, el), el
        assert c != 0, el


def _characters(group):
    signs = tuple(-1 if o % 2 == 0 else 1 for o in group.orders) + (-1,) * group.laurent_rank
    return [char_from_signs(group, (1,) * group.ngens), char_from_signs(group, signs)]


@pytest.mark.parametrize("name", GROUPS)
def test_reduce_and_mul_match_the_frozen_copies(name):
    group = GROUPS[name]
    rng = random.Random("reduce " + name)
    for _ in range(200):
        a, b = _raw_exponents(group, rng), _raw_exponents(group, rng)
        assert group.reduce(a) == ref_reduce(group, a)
        assert group.reduce(list(a)) == ref_reduce(group, list(a))
        assert group.mul(a, b) == ref_mul(group, a, b)
        ra, rb = ref_reduce(group, a), ref_reduce(group, b)
        assert group.mul(ra, rb) == ref_mul(group, ra, rb)
    for bad in ((0,) * (group.ngens + 1), (0,) * (group.ngens - 1)) if group.ngens else ((0,),):
        with pytest.raises(GroupMismatch):
            group.reduce(bad)
        with pytest.raises(GroupMismatch):
            ref_reduce(group, bad)


@pytest.mark.parametrize("name", GROUPS)
def test_element_operations_match_the_frozen_copies(name):
    group = GROUPS[name]
    rng = random.Random("elements " + name)
    chars = _characters(group)
    for _ in range(150):
        (a, ra), (b, rb) = _pair(group, rng), _pair(group, rng)
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(a - a, ra - ra)
        assert_same(-a, -ra)
        assert_same(a * b, ra * rb)
        assert_same(a * (b + a), ra * (rb + ra))
        k = rng.randint(-3, 3)
        assert_same(a * k, ra * k)
        assert_same(k * a, ra * k)
        assert_same(a * 0, ra * 0)
        assert (a * 0).terms == {}
        assert_same(a.involute(), ra.involute())
        for w in chars:
            assert_same(a.twist(w), ra.twist(w))


@pytest.mark.parametrize("name", [n for n, g in GROUPS.items() if g.orders])
def test_products_that_cancel_store_nothing(name):
    """(1 + t)(1 - t) = 1 - t^2, which is 0 when t has order 2 and keeps
    two terms otherwise."""
    group = GROUPS[name]
    one = group.identity
    t = group.generator(0)
    raw_plus, raw_minus = {one: 1, t: 1}, {one: 1, t: -1}
    new = RingElement(group, raw_plus) * RingElement(group, raw_minus)
    ref = RefElement(group, raw_plus) * RefElement(group, raw_minus)
    assert_same(new, ref)
    assert (new.terms == {}) == (group.orders[0] == 2)


@pytest.mark.parametrize("name", GROUPS)
def test_matrix_products_match_the_frozen_copy(name):
    group = GROUPS[name]
    rng = random.Random("matrices " + name)
    for rows, inner, cols in itertools.product((1, 3), (0, 1, 2, 4), (1, 2)):
        for _ in range(4):
            pa = [[_pair(group, rng) for _ in range(inner)] for _ in range(rows)]
            pb = [[_pair(group, rng) for _ in range(cols)] for _ in range(inner)]
            a = RingMatrix(group, rows, inner, [[p[0] for p in r] for r in pa])
            b = RingMatrix(group, inner, cols, [[p[0] for p in r] for r in pb])
            ref = ref_matrix_mul([[p[1] for p in r] for r in pa], [[p[1] for p in r] for r in pb], group)
            prod = a * b
            assert (prod.rows, prod.cols) == (rows, cols)
            if inner == 0:
                assert prod.is_zero()
                continue
            for new_row, ref_row in zip(prod.entries, ref):
                for new, old in zip(new_row, ref_row):
                    assert_same(new, old)


def test_matrix_product_checks_shapes_and_groups():
    g = cyclic_group(4)
    with pytest.raises(GroupMismatch):
        RingMatrix.zeros(g, 2, 3) * RingMatrix.zeros(g, 2, 3)
    with pytest.raises(GroupMismatch):
        RingMatrix.identity(g, 2) * RingMatrix.identity(cyclic_group(2), 2)
