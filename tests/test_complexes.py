"""Chain complexes over group rings: construction, duality, products."""

import pytest

from fourfold.complexes import (
    LambdaComplex,
    _exact_complex,
    circle_complex,
    cross_circle,
    homology_Lambda,
    homology_Zw,
    periodic_complex,
    point_complex,
    presentation_complex,
    tensor_complex,
    twisted_dual,
    validate,
    zero_complex,
)
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    laurent_extension,
    product_group,
    ring_generator,
    ring_one,
    trivial_char,
    trivial_group,
)
from fourfold.intmat import AbelianInvariants
from fourfold.errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    GroupMismatch,
    InfiniteGroup,
    NotAComplex,
    UnsupportedGroup,
)


def test_shape_checks():
    g = cyclic_group(2)
    w = trivial_char(g)
    with pytest.raises(DimensionMismatch):
        LambdaComplex(g, w, (1, -1), (RingMatrix.zeros(g, 1, 0),))
    with pytest.raises(DimensionMismatch):
        LambdaComplex(g, w, (1, 1), ())
    with pytest.raises(DimensionMismatch):
        LambdaComplex(g, w, (1, 2), (RingMatrix.zeros(g, 1, 1),))
    with pytest.raises(GroupMismatch):
        LambdaComplex(g, trivial_char(cyclic_group(3)), (1,), ())
    wrong = RingMatrix.zeros(cyclic_group(3), 1, 1)
    with pytest.raises(GroupMismatch):
        LambdaComplex(g, w, (1, 1), (wrong,))


def test_validate_reports_offending_degree():
    g = cyclic_group(2)
    w = trivial_char(g)
    t = ring_generator(g, 0)
    one = ring_one(g)
    d1 = RingMatrix(g, 1, 1, [[t - one]])
    d2 = RingMatrix(g, 1, 1, [[one]])  # d1 . d2 = t - 1 != 0
    # the constructor refuses both, the second (d1 = d2 = 1) surviving
    # augmentation as well, and names the degree; validate on the same
    # boundaries built without that check names it too
    for bs in ((d1, d2), (d2, d2)):
        with pytest.raises(NotAComplex) as e:
            LambdaComplex(g, w, (1, 1, 1), bs)
        assert e.value.degree == 2
        with pytest.raises(NotAComplex) as e:
            validate(_exact_complex(g, w, (1, 1, 1), bs))
        assert e.value.degree == 2


def test_degree_bounds():
    c = point_complex()
    with pytest.raises(DegreeOutOfRange):
        c.d(1)
    with pytest.raises(DegreeOutOfRange):
        homology_Zw(c, 1)
    assert homology_Zw(c, 0) == AbelianInvariants(1, ())


def test_twisted_dual_is_an_involution():
    for c in (
        presentation_complex(cyclic_group(4)),
        presentation_complex(product_group((2, 2))),
    ):
        d = twisted_dual(c)
        dd = twisted_dual(d)
        assert dd.ranks == c.ranks
        for i in range(1, c.top_degree + 1):
            assert dd.d(i) == c.d(i)
        assert d.ranks == tuple(reversed(c.ranks))


def test_presentation_complex_shapes_and_exactness():
    c = presentation_complex(cyclic_group(5))
    assert c.ranks == (1, 1, 1)
    assert homology_Zw(c, 0) == AbelianInvariants(1, ())
    assert homology_Zw(c, 1) == AbelianInvariants(0, (5,))
    inv1 = homology_Lambda(c, 1)
    assert inv1.is_trivial
    # pi_2 of the cover: the augmentation ideal sitting inside the group ring
    inv2 = homology_Lambda(c, 2)
    assert inv2 == AbelianInvariants(4, ())

    k = presentation_complex(product_group((2, 2)))
    assert k.ranks == (1, 2, 3)
    assert homology_Zw(k, 1) == AbelianInvariants(0, (2, 2))
    inv1 = homology_Lambda(k, 1)
    assert inv1.is_trivial

    with pytest.raises(UnsupportedGroup):
        presentation_complex(laurent_extension(trivial_group()))


def test_presentation_complex_wedge_cells():
    base = presentation_complex(cyclic_group(3))
    wedged = presentation_complex(cyclic_group(3), wedge_cells=2)
    assert wedged.ranks == (1, 1, 3)
    b = homology_Lambda(base, 2)
    ww = homology_Lambda(wedged, 2)
    # each wedged cell contributes a free copy of the group ring to pi_2
    assert ww.free_rank == b.free_rank + 2 * 3
    assert ww.torsion == b.torsion


def test_group_ring_homology_reduces_each_expansion_once(monkeypatch):
    from fourfold import intmat
    from fourfold.manifolds import rp4_complex

    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    expected = {
        # the cover of the presentation complex: Euler characteristic 36 (1 - 3 + 6)
        "2x3x6": (presentation_complex(product_group((2, 3, 6))), [1, 0, 143]),
        # the cover of RP^4 is S^4; its boundary objects repeat, t - 1 and t + 1
        "rp4": (rp4_complex(), [1, 0, 0, 0, 1]),
    }
    counts = {}
    for name, (c, free_ranks) in expected.items():
        del reduced[:]
        homology = [homology_Lambda(c, i) for i in range(c.top_degree + 1)]
        assert homology == [AbelianInvariants(r, ()) for r in free_ranks]
        counts[name] = len(reduced)
    # 63 and 22 when every degree presented its homology as a module
    assert counts == {"2x3x6": 2, "rp4": 2}


def test_cross_circle_kunneth():
    c = presentation_complex(cyclic_group(3))
    x = cross_circle(c)
    validate(x)
    assert x.top_degree == c.top_degree + 1
    n = c.top_degree
    for i in range(x.top_degree + 1):
        left = homology_Zw(c, i) if i <= n else AbelianInvariants(0, ())
        below = homology_Zw(c, i - 1) if 1 <= i <= n + 1 and i - 1 <= n else AbelianInvariants(0, ())
        assert homology_Zw(x, i) == AbelianInvariants.from_diag(left.free_rank + below.free_rank, left.torsion + below.torsion)


def test_cross_circle_twisted_sign():
    # the circle with the orientation character on its own generator
    x = cross_circle(point_complex(), sign=-1)
    assert homology_Zw(x, 0) == AbelianInvariants(0, (2,))
    assert homology_Zw(x, 1) == AbelianInvariants(0, ())


def test_torus_from_double_cross():
    t2 = cross_circle(cross_circle(point_complex()))
    assert t2.ranks == (1, 2, 1)
    assert homology_Zw(t2, 0) == AbelianInvariants(1, ())
    assert homology_Zw(t2, 1) == AbelianInvariants(2, ())
    assert homology_Zw(t2, 2) == AbelianInvariants(1, ())
    # same torus, orientation character -1 on the second circle factor:
    # Kunneth of an untwisted circle with a twisted one
    tw = cross_circle(cross_circle(point_complex()), sign=-1)
    assert homology_Zw(tw, 0) == AbelianInvariants(0, (2,))
    assert homology_Zw(tw, 1) == AbelianInvariants(0, (2,))
    assert homology_Zw(tw, 2) == AbelianInvariants(0, ())


def test_tensor_complex_unit_and_mismatch():
    c = presentation_complex(cyclic_group(2))
    p = LambdaComplex(c.group, c.w, (1,), ())
    t = tensor_complex(c, p)
    assert t.ranks == c.ranks
    for i in range(1, c.top_degree + 1):
        assert t.d(i) == c.d(i)
    other = presentation_complex(cyclic_group(3))
    with pytest.raises(GroupMismatch):
        tensor_complex(c, other)
    tw = LambdaComplex(c.group, char_from_signs(c.group, (-1,)), (1,), ())
    with pytest.raises(GroupMismatch):
        tensor_complex(c, tw)


def test_tensor_complex_validates_its_factors():
    # a factor from outside the package is refused where it is built, so
    # tensor_complex only ever meets complexes
    g = cyclic_group(2)
    w = trivial_char(g)
    t = ring_generator(g, 0)
    one = ring_one(g)
    with pytest.raises(NotAComplex) as e:
        LambdaComplex(g, w, (1, 1, 1), (RingMatrix(g, 1, 1, [[t - one]]), RingMatrix(g, 1, 1, [[one]])))
    assert e.value.degree == 2
    good = presentation_complex(g)
    for top in (None, 2):
        assert validate(tensor_complex(good, good, top=top))


def test_the_three_pieces_are_complexes_that_share_their_boundaries():
    g = laurent_extension(product_group((2, 3)))
    w = char_from_signs(g, (-1, 1, -1))
    zero = zero_complex(g, w, (1, 0, 1, 0, 1, 2))
    assert validate(zero) and zero.ranks == (1, 0, 1, 0, 1, 2) and zero.w == w
    # one matrix per shape: d_1 and d_3 are 1 x 0, d_2 and d_4 are 0 x 1
    assert zero.d(1) is zero.d(3) and zero.d(2) is zero.d(4) and zero.d(5).is_zero()
    assert [homology_Zw(zero, i) for i in range(6)] == [
        AbelianInvariants(1, ()),
        AbelianInvariants(0, ()),
        AbelianInvariants(1, ()),
        AbelianInvariants(0, ()),
        AbelianInvariants(1, ()),
        AbelianInvariants(2, ()),
    ]
    for i, n in enumerate(g.orders):
        periodic = periodic_complex(g, i, 5, w)
        assert validate(periodic) and periodic.ranks == (1,) * 6 and periodic.w == w
        # one odd and one even matrix
        assert periodic.d(1) is periodic.d(3) is periodic.d(5) and periodic.d(2) is periodic.d(4)
        assert periodic.d(1).entries == [[ring_generator(g, i) - ring_one(g)]]
        assert periodic.d(2).entries == [[sum((ring_generator(g, i, k) for k in range(1, n)), ring_one(g))]]
    assert periodic_complex(g, 0, 0, w).ranks == (1,)
    circle = circle_complex(g, 2, w)
    assert validate(circle) and circle.ranks == (1, 1)
    assert circle.d(1).entries == [[ring_generator(g, 2) - ring_one(g)]]


def test_tensor_complex_negates_each_boundary_of_its_second_factor_once(monkeypatch):
    g = laurent_extension(cyclic_group(3))
    w = trivial_char(g)
    a, b = periodic_complex(g, 0, 6, w), circle_complex(g, 1, w)
    negate = RingMatrix.__neg__
    negated = []

    def counting(m):
        negated.append(m)
        return negate(m)

    monkeypatch.setattr(RingMatrix, "__neg__", counting)
    product = tensor_complex(a, b, top=6)
    # the circle's one boundary carries the Koszul sign in degrees 2, 4, 6
    assert negated == [b.d(1)]
    monkeypatch.undo()
    assert validate(product)
    assert product.ranks == (1,) + (2,) * 6


def test_homology_lambda_needs_finite_group():
    x = cross_circle(point_complex())
    with pytest.raises(InfiniteGroup):
        homology_Lambda(x, 0)


def euler_char_mod2(cx):
    """The Euler characteristic of a complex, mod 2."""
    return sum(r if i % 2 == 0 else -r for i, r in enumerate(cx.ranks)) % 2


def test_euler_char_mod2():
    assert euler_char_mod2(point_complex()) == 1
    assert euler_char_mod2(presentation_complex(cyclic_group(7))) == 1
    assert euler_char_mod2(presentation_complex(product_group((2, 2)))) == 0
    assert euler_char_mod2(presentation_complex(cyclic_group(2), wedge_cells=1)) == 0
