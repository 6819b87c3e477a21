"""Group descriptors, orientation characters, and the integral group ring."""

import random

import pytest

from fourfold.groupring import (
    OrientationChar,
    RingMatrix,
    _element_table,
    _get_descriptor,
    char_from_signs,
    cyclic_group,
    deexpand_vector,
    factor_norm,
    laurent_extension,
    norm_element,
    product_group,
    regular_representation,
    ring_generator,
    ring_one,
    ring_zero,
    trivial_char,
    trivial_group,
)
from fourfold.errors import GroupMismatch, InfiniteGroup, UnsupportedCharacter, UnsupportedGroup
from fourfold.intmat import IntMatrix


def test_group_descriptor_basics():
    g = cyclic_group(6)
    assert g.is_finite and g.order() == 6
    assert g.identity == (0,)
    t = g.generator(0)
    assert g.mul(t, t) == (2,)
    assert g.inv((1,)) == (5,)
    assert g.reduce((7,)) == (1,)
    els = g.elements()
    assert len(els) == 6
    assert els[0] == g.identity
    for i, el in enumerate(els):
        assert _element_table(g.orders)[1][g.reduce(el)] == i


def test_product_group_enumeration_is_lexicographic():
    g = product_group((2, 3))
    assert g.order() == 6
    assert g.elements() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert g.mul((1, 2), (1, 2)) == (0, 1)
    assert g.inv((1, 1)) == (1, 2)


def test_group_law_random():
    rng = random.Random(8)
    for orders in ((4,), (2, 2), (3, 5), (2, 2, 2)):
        g = product_group(orders)
        els = g.elements()
        for _ in range(60):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            assert g.mul(a, b) == g.mul(b, a)
            assert g.mul(a, g.inv(a)) == g.identity


@pytest.mark.parametrize("orders", [(), (1,), (7,), (12,), (2, 2), (3, 5), (2, 2, 2), (2, 4, 8)])
def test_group_law_exhaustive(orders):
    """Identity, inverses and associativity on every element, for groups of
    order at most 64; the coordinatewise law makes them hold for all orders."""
    g = product_group(orders)
    els = g.elements()
    e = g.identity
    for a in els:
        assert g.mul(a, e) == a == g.mul(e, a)
        assert g.mul(a, g.inv(a)) == e
    for a in els:
        for b in els:
            ab = g.mul(a, b)
            for c in els:
                assert g.mul(ab, c) == g.mul(a, g.mul(b, c))


def test_laurent_extension():
    g = laurent_extension(cyclic_group(4))
    assert not g.is_finite
    with pytest.raises(InfiniteGroup):
        g.order()
    with pytest.raises(InfiniteGroup):
        g.elements()
    assert g.ngens == 2
    assert g.reduce((5, -2)) == (1, -2)
    assert g.finite_part().order() == 4
    g2 = laurent_extension(trivial_group(), rank=2)
    assert g2.ngens == 2
    assert g2.mul((1, -1), (2, 3)) == (3, 2)


def test_bad_group_parameters():
    with pytest.raises(UnsupportedGroup):
        cyclic_group(0)
    with pytest.raises(UnsupportedGroup):
        product_group((2, -3))


def test_orientation_char():
    g = cyclic_group(2)
    w = char_from_signs(g, (-1,))
    assert not w.is_trivial
    assert w.sign((0,)) == 1
    assert w.sign((1,)) == -1
    assert trivial_char(g).is_trivial
    with pytest.raises(UnsupportedCharacter):
        char_from_signs(cyclic_group(3), (-1,))
    with pytest.raises(UnsupportedCharacter):
        char_from_signs(g, (2,))
    with pytest.raises(UnsupportedCharacter):
        char_from_signs(g, (1, 1))


def test_char_is_multiplicative():
    g = product_group((2, 4))
    w = char_from_signs(g, (-1, -1))
    els = g.elements()
    for a in els:
        for b in els:
            assert w.sign(g.mul(a, b)) == w.sign(a) * w.sign(b)


def test_ring_element_arithmetic():
    g = cyclic_group(5)
    t = ring_generator(g, 0)
    one = ring_one(g)
    z = ring_zero(g)
    assert t + z == t
    assert t - t == z
    assert (t + one) * (t - one) == t * t - one
    assert 3 * t == t + t + t
    assert (-t) + t == z
    assert t * ring_generator(g, 0, 4) == one


def augmentation(e):
    """The sum of the coefficients, computed here so that it checks
    twisted_augmentation rather than reusing it."""
    return sum(e.terms.values())


def test_involution_and_augmentation():
    rng = random.Random(41)
    g = product_group((2, 3))
    els = g.elements()

    def rand_elem():
        from fourfold.groupring import RingElement
        terms = {}
        for _ in range(rng.randint(0, 4)):
            terms[rng.choice(els)] = rng.randint(-5, 5)
        return RingElement(g, terms)

    w = char_from_signs(g, (-1, 1))
    for _ in range(80):
        a, b = rand_elem(), rand_elem()
        assert (a * b).involute() == a.involute() * b.involute()
        assert a.involute().involute() == a
        assert augmentation(a * b) == augmentation(a) * augmentation(b)
        assert (a * b).twisted_augmentation(w) == a.twisted_augmentation(w) * b.twisted_augmentation(w)
        assert (a * b).twist(w) == a.twist(w) * b.twist(w)
        assert a.twist(w).twist(w) == a


def test_norm_element():
    g = cyclic_group(4)
    n = norm_element(g)
    t = ring_generator(g, 0)
    assert t * n == n
    assert augmentation(n) == 4
    w = char_from_signs(g, (-1,))
    assert n.twisted_augmentation(w) == 0


def test_regular_representation_is_multiplicative():
    rng = random.Random(17)
    for orders in ((3,), (2, 2), (4,)):
        g = product_group(orders)
        els = g.elements()
        from fourfold.groupring import RingElement
        for _ in range(40):
            a = RingElement(g, {rng.choice(els): rng.randint(-3, 3) for _ in range(2)})
            b = RingElement(g, {rng.choice(els): rng.randint(-3, 3) for _ in range(2)})
            assert regular_representation(a * b) == regular_representation(a) * regular_representation(b)
        assert regular_representation(ring_one(g)) == IntMatrix.identity(g.order())


def test_ring_matrix_expand_is_functorial():
    rng = random.Random(23)
    g = product_group((2, 2))
    els = g.elements()
    from fourfold.groupring import RingElement

    def rand_mat(r, c):
        entries = [
            [RingElement(g, {rng.choice(els): rng.randint(-2, 2)}) for _ in range(c)]
            for _ in range(r)
        ]
        return RingMatrix(g, r, c, entries)

    for _ in range(25):
        a = rand_mat(2, 3)
        b = rand_mat(3, 2)
        assert (a * b).expand() == a.expand() * b.expand()
        assert (a * b).augment() == a.augment() * b.augment()
        w = char_from_signs(g, (-1, 1))
        assert (a * b).augment(w) == a.augment(w) * b.augment(w)
        # involution reverses products on the transpose side
        assert (a * b).transpose_involute() == b.transpose_involute() * a.transpose_involute()


def test_expand_deexpand_round_trip():
    g = cyclic_group(3)
    t = ring_generator(g, 0)
    m = RingMatrix(g, 2, 1, [[t + ring_one(g)], [2 * t]])
    full = m.expand()
    # column 0 of the expansion is the image of generator 0
    col = full.column(0)
    back = deexpand_vector(g, list(col), 2)
    assert back[0] == t + ring_one(g)
    assert back[1] == 2 * t
    with pytest.raises(GroupMismatch):
        deexpand_vector(g, [0] * 5, 2)


def test_ring_solve_and_kernel():
    g = product_group((3, 2))
    t = ring_generator(g, 0)
    one = ring_one(g)
    a = RingMatrix(g, 1, 1, [[t - one]])
    b = RingMatrix(g, 1, 2, [[t * t - one, (t - one) * ring_generator(g, 1)]])
    x = a.solve(b)
    assert x.rows == 1 and x.cols == 2
    assert a * x == b
    # 1 has augmentation 1, so it is not a multiple of t - 1
    assert a.solve(RingMatrix(g, 1, 1, [[one]])) is None
    k = a.kernel()
    assert (a * k).is_zero()
    # the kernel of t - 1 is the multiples of the norm of the first factor
    n = factor_norm(g, 0)
    assert a.solve(RingMatrix(g, 1, 1, [[n]])) is None
    assert RingMatrix(g, 1, 1, [[n]]).solve(k) is not None
    assert k.solve(RingMatrix(g, 1, 1, [[n]])) is not None


def test_ring_solve_refuses_a_right_side_over_another_group():
    g = cyclic_group(4)
    h = product_group((2, 2))
    a = RingMatrix(g, 1, 1, [[ring_generator(g, 0) - ring_one(g)]])
    b = RingMatrix(h, 1, 1, [[ring_generator(h, 0) - ring_one(h)]])
    # the coordinates of s - 1 in Z/2 x Z/2 are those of t^2 - 1 in Z/4
    with pytest.raises(GroupMismatch):
        a.solve(b)


def test_ring_arithmetic_survives_an_evicted_descriptor():
    g = product_group((3, 2))
    t = ring_generator(g, 0)
    m = RingMatrix(g, 1, 1, [[t - ring_one(g)]])
    _get_descriptor.cache_clear()
    _element_table.cache_clear()
    h = product_group((3, 2))
    assert h == g and h is not g
    s = ring_generator(h, 1)
    assert t * s == ring_generator(g, 0) * ring_generator(g, 1)
    assert regular_representation(t * s) == regular_representation(t) * regular_representation(s)
    assert m.solve(RingMatrix(h, 1, 1, [[(t - ring_one(h)) * s]])) == RingMatrix(h, 1, 1, [[s]])


def test_factor_norm():
    g = product_group((3, 1, 4))
    assert factor_norm(g, 0) == sum((ring_generator(g, 0, e) for e in range(3)), ring_zero(g))
    assert factor_norm(g, 1) == ring_one(g)
    assert augmentation(factor_norm(g, 2)) == 4
    assert factor_norm(cyclic_group(5), 0) == norm_element(cyclic_group(5))


def test_expand_requires_finite_group():
    g = laurent_extension(trivial_group())
    m = RingMatrix.identity(g, 1)
    with pytest.raises(InfiniteGroup):
        m.expand()


def test_map_group_embedding():
    small = cyclic_group(2)
    big = product_group((2, 3))
    t = ring_generator(small, 0)

    def embed(el):
        return (el[0], 0)

    img = (t + ring_one(small)).map_group(big, embed)
    assert augmentation(img) == 2
    assert img == ring_generator(big, 0) + ring_one(big)


@pytest.mark.parametrize("i", (-1, 2, 3))
def test_generator_index_is_checked(i):
    g = laurent_extension(cyclic_group(4), 1)
    with pytest.raises(GroupMismatch, match="index %d" % i):
        g.generator(i)


@pytest.mark.parametrize("i", (-1, 2, 3))
def test_ring_generator_index_is_checked(i):
    g = laurent_extension(cyclic_group(4), 1)
    with pytest.raises(GroupMismatch, match="index %d" % i):
        ring_generator(g, i)


@pytest.mark.parametrize("i", (-1, 1, 2))
def test_factor_norm_index_is_checked(i):
    # Z/4 x Z has one cyclic factor: index 1 names the Laurent direction
    g = laurent_extension(cyclic_group(4), 1)
    with pytest.raises(GroupMismatch, match="index %d" % i):
        factor_norm(g, i)
