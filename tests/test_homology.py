"""Group homology via small free resolutions, checked against the bar complex.

The bar resolution is the independent oracle here: it is assembled
directly from tuples of group elements with the standard alternating
boundary, shares no code with the resolution builder, and is only
feasible for small groups and degrees.

Resolutions are exact by construction, so the library does not check
them at run time; check_exactness below does, on the full integer
expansion, for every resolution the benchmark groups use.  The built-in
model complexes are likewise checked for d.d = 0 here.
"""

import itertools
import math
import os
import sys

import pytest

from fourfold import complexes, homology
from fourfold.complexes import LambdaComplex, presentation_complex, validate
from fourfold.errors import GroupMismatch
from fourfold.extensions import fpmodule_cokernel, fpmodule_free, fpmodule_kernel
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    laurent_extension,
    norm_element,
    product_group,
    ring_generator,
    ring_one,
    trivial_char,
    trivial_group,
)
from fourfold.homology import (
    DEFAULT_DEGREE_BOUND,
    bar_homology_oracle,
    group_homology,
    module_homology,
    resolution_for,
)
from fourfold.intmat import AbelianInvariants, smith_normal_form
from fourfold.manifolds import (
    LensSpace,
    cp2_complex,
    lens_complex,
    lens_times_circle,
    rp4_complex,
    s4_complex,
    torus4_complex,
)
from fourfold.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    ParseError,
    budget,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(PERFBENCH)

import oracles  # noqa: E402

Z = AbelianInvariants(1, ())
ZERO = AbelianInvariants(0, ())


def c(*torsion):
    return AbelianInvariants(0, tuple(torsion))


def check_exactness(res):
    """A free resolution of Z up to its top degree: d.d = 0, H_0 = Z and
    H_i = 0 for 0 < i < top_degree, on the full integer expansion.

    One reduction per boundary: its diagonal gives the torsion in the
    degree it maps into and its rank the free part of the degree it maps
    out of, as in homology_invariants.
    """
    validate(res)
    n = res.group.order()
    diags = [smith_normal_form(res.d(i).expand()).diag for i in range(1, res.top_degree + 1)]
    out_rank = 0
    for i, diag in enumerate(diags):
        h = AbelianInvariants(res.ranks[i] * n - out_rank - len(diag), tuple(d for d in diag if d > 1))
        if i == 0 and h != Z:
            raise AssertionError("H_0 of resolution is %s, expected Z" % h)
        if i and not h.is_trivial:
            raise AssertionError("resolution not exact in degree %d: %s" % (i, h))
        out_rank = len(diag)
    return True


# the groups of the perfbench homology workload, a three-factor product,
# and a descriptor with an order-1 factor
RESOLVED_ORDERS = (
    [(n,) for n in (2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 24, 32)]
    + [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (2, 3, 2), (2, 1, 3)]
)


@pytest.mark.parametrize("bound", (5, 6))
@pytest.mark.parametrize("orders", RESOLVED_ORDERS, ids=lambda o: "x".join(map(str, o)))
def test_resolutions_are_exact(orders, bound):
    g = product_group(orders)
    res = resolution_for(g, bound)
    assert res.group == g and res.top_degree == bound
    assert check_exactness(res)


MODEL_COMPLEXES = {
    "s4": s4_complex,
    "cp2": cp2_complex,
    "rp4": rp4_complex,
    "torus4": torus4_complex,
    "L(5,2)": lambda: lens_complex(LensSpace(5, 2)),
    "L(7,3)": lambda: lens_complex(LensSpace(7, 3)),
    "L(9,4)": lambda: lens_complex(LensSpace(9, 4)),
    "L(5,2)xS1": lambda: lens_times_circle(LensSpace(5, 2)),
    "L(7,3)xS1": lambda: lens_times_circle(LensSpace(7, 3)),
    "L(8,3)xS1": lambda: lens_times_circle(LensSpace(8, 3)),
    "pres(2x3)": lambda: presentation_complex(product_group((2, 3))),
    "pres(2x3)+wedge": lambda: presentation_complex(product_group((2, 3)), wedge_cells=2),
    "pres(2x2x2)+wedge": lambda: presentation_complex(product_group((2, 2, 2)), wedge_cells=1),
}


@pytest.mark.parametrize("name", list(MODEL_COMPLEXES))
def test_model_complexes_satisfy_dd_zero(name):
    assert validate(MODEL_COMPLEXES[name]())


def test_group_homology_never_expands_the_resolution(monkeypatch):
    def refuse(self):
        raise AssertionError("expand called")

    monkeypatch.setattr(RingMatrix, "expand", refuse)
    g = cyclic_group(2000)
    assert group_homology(g, trivial_char(g), 3) == AbelianInvariants(0, (2000,))


def test_periodic_resolution_is_exact():
    for p in (2, 3, 5, 7):
        res = resolution_for(cyclic_group(p))
        assert check_exactness(res)
        assert res.ranks == (1,) * (res.top_degree + 1)


@pytest.mark.parametrize(
    "d1_scale, d2_scale, message",
    [
        # H_0 = coker(2(t - 1)) = Z + (Z/2)^4
        (2, 1, "H_0"),
        # H_1 = ker(t - 1) / im(2N) = Z/2
        (1, 2, "degree 1"),
    ],
)
def test_check_exactness_rejects_a_complex_that_is_not_exact(d1_scale, d2_scale, message):
    g = cyclic_group(5)
    tm1 = ring_generator(g, 0) - ring_one(g)
    d1 = RingMatrix(g, 1, 1, [[d1_scale * tm1]])
    d2 = RingMatrix(g, 1, 1, [[d2_scale * norm_element(g)]])
    c = LambdaComplex(g, trivial_char(g), (1, 1, 1), (d1, d2))
    with pytest.raises(AssertionError, match=message):
        check_exactness(c)


def test_resolution_for_products(monkeypatch):
    res = resolution_for(product_group((2, 2)))
    assert check_exactness(res)
    assert res.ranks[:5] == (1, 2, 3, 4, 5)
    res = resolution_for(product_group((2, 3, 2)))
    assert check_exactness(res)
    assert res.ranks[0] == 1
    # the number of factors is not capped: four factors give ranks
    # C(n+3, 3), and only the budget bounds the build
    res = resolution_for(product_group((2, 2, 2, 2)))
    assert check_exactness(res)
    assert res.ranks == tuple(math.comb(n + 3, 3) for n in range(DEFAULT_DEGREE_BOUND + 1))

    def refuse(*args):
        raise AssertionError("resolution built")

    monkeypatch.setattr(homology, "periodic_complex", refuse)
    homology._resolution.cache_clear()
    with budget(100000), pytest.raises(
        BudgetExceeded, match="resolution through degree 6 needs 116424 cells in its top boundary, budget 100000"
    ):
        resolution_for(product_group((2,) * 6))
    monkeypatch.undo()
    # a free generator adds a circle factor: Z/2 x Z has rank 2 above degree 0
    res = resolution_for(laurent_extension(cyclic_group(2)))
    assert validate(res)
    assert res.ranks == (1,) + (2,) * DEFAULT_DEGREE_BOUND


def test_groups_of_four_and_five_factors_answer_within_the_budget():
    # Z/2 x Z/3 x Z/5 x Z/7 is Z/210
    g, h = product_group((2, 3, 5, 7)), cyclic_group(210)
    for n in range(8):
        assert group_homology(g, trivial_char(g), n) == group_homology(h, trivial_char(h), n), n
    # the Kunneth closed form of perfbench's oracle, which shares no code
    # with the resolution
    cases = [
        ((2, 2, 2, 2), (1, 1, 1, 1)),
        ((2, 2, 2, 2), (-1, 1, 1, 1)),
        ((2, 2, 2, 2), (-1, -1, 1, -1)),
        ((3, 3, 3, 3), (1, 1, 1, 1)),
        ((2, 2, 2, 2, 2), (1, 1, 1, 1, 1)),
        ((4, 2, 2, 2, 2), (1, 1, 1, 1, 1)),
    ]
    for orders, signs in cases:
        g = product_group(orders)
        w = char_from_signs(g, signs)
        for n in range(6):
            got = group_homology(g, w, n)
            assert oracles.canonical(got.free_rank, got.torsion) == oracles.group_homology(orders, signs, n), (
                orders,
                signs,
                n,
            )
    # and the bar construction, in the degrees it affords
    g = product_group((2, 2, 2, 2))
    for signs in ((1, 1, 1, 1), (-1, 1, 1, 1)):
        w = char_from_signs(g, signs)
        for n in range(2):
            assert bar_homology_oracle(g, w, n) == group_homology(g, w, n), (signs, n)


def test_trivial_resolution():
    res = resolution_for(trivial_group(), 5)
    assert check_exactness(res)
    g = trivial_group()
    for i in range(5):
        expect = Z if i == 0 else ZERO
        assert group_homology(g, trivial_char(g), i) == expect


def test_cyclic_homology_frozen_values():
    for p in (2, 3, 5):
        g = cyclic_group(p)
        w = trivial_char(g)
        values = [group_homology(g, w, i) for i in range(5)]
        assert values == [Z, c(p), ZERO, c(p), ZERO]


def test_cyclic_twisted_homology():
    g = cyclic_group(2)
    w = char_from_signs(g, (-1,))
    values = [group_homology(g, w, i) for i in range(5)]
    assert values == [c(2), ZERO, c(2), ZERO, c(2)]
    g = cyclic_group(4)
    w = char_from_signs(g, (-1,))
    values = [group_homology(g, w, i) for i in range(5)]
    assert values == [c(2), ZERO, c(2), ZERO, c(2)]


def test_klein_four_homology_frozen_values():
    g = product_group((2, 2))
    w = trivial_char(g)
    values = [group_homology(g, w, i) for i in range(5)]
    assert values == [Z, c(2, 2), c(2), c(2, 2, 2), c(2, 2)]


def test_degree_one_is_abelianization():
    for orders in ((2,), (6,), (2, 4), (3, 5), (2, 2, 2)):
        g = product_group(orders)
        expect = AbelianInvariants.from_diag(0, list(orders))
        assert group_homology(g, trivial_char(g), 1) == expect


def test_homology_zero_degree():
    g = cyclic_group(6)
    assert group_homology(g, trivial_char(g), 0) == Z
    with pytest.raises(DegreeOutOfRange):
        group_homology(g, trivial_char(g), -1)


def test_bar_oracle_agreement_small():
    cases = [
        (cyclic_group(2), (1,), range(5)),
        (cyclic_group(2), (-1,), range(5)),
        (cyclic_group(3), (1,), range(4)),
        (cyclic_group(4), (-1,), range(4)),
        (product_group((2, 2)), (1, 1), range(4)),
        (product_group((2, 2)), (-1, 1), range(3)),
    ]
    for g, signs, degrees in cases:
        w = char_from_signs(g, signs)
        for n in degrees:
            assert bar_homology_oracle(g, w, n) == group_homology(g, w, n), (g, signs, n)


def test_bar_oracle_unnormalized_variant():
    g = cyclic_group(3)
    w = trivial_char(g)
    for n in range(4):
        assert bar_homology_oracle(g, w, n, normalized=False) == group_homology(g, w, n)


def test_bar_oracle_budget():
    g = product_group((2, 2))
    with budget(10), pytest.raises(BudgetExceeded):
        bar_homology_oracle(g, trivial_char(g), 4)
    for n in (-1, "lots", 1.5, True):
        with pytest.raises(ParseError, match="a budget must be a non-negative integer"):
            with budget(n):
                pass


def test_bar_oracle_refuses_a_character_of_another_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("bar resolution built")

    monkeypatch.setattr(homology, "_bar_boundary", refuse)
    monkeypatch.setattr(homology, "_bar_elements", refuse)
    g = cyclic_group(2)
    w = char_from_signs(cyclic_group(4), (-1,))
    # read as a Z/2 character, w would give H_0 = Z/2
    with pytest.raises(GroupMismatch):
        bar_homology_oracle(g, w, 0)
    with pytest.raises(GroupMismatch):
        group_homology(g, w, 0)


def test_tensor_resolution_matches_direct_build():
    res = resolution_for(product_group((2, 3)))
    assert res.group == product_group((2, 3))
    assert check_exactness(res)


def test_resolution_build_does_not_revalidate_its_factors(monkeypatch):
    # the periodic factors and partial products are complexes by construction
    def refuse(c):
        raise AssertionError("validate called on a factor built by resolution_for")

    monkeypatch.setattr(complexes, "validate", refuse)
    homology._resolution.cache_clear()
    res = resolution_for(product_group((2, 2, 2)), 6)
    assert res.ranks == (1, 3, 6, 10, 15, 21, 28)
    monkeypatch.undo()
    assert check_exactness(res)


def test_a_resolution_is_charged_by_its_top_boundary():
    # three factors through degree 6: the top boundary is 21 x 28
    g = product_group((2, 2, 2))
    homology._resolution.cache_clear()
    with budget(587), pytest.raises(
        BudgetExceeded, match="resolution through degree 6 needs 588 cells in its top boundary, budget 587"
    ):
        group_homology(g, trivial_char(g), 2)
    with budget(588):
        assert group_homology(g, trivial_char(g), 2) == c(2, 2, 2)
    # the charge is the product of the two top ranks of what gets built,
    # the terms of the largest norm element (the order of its factor) or
    # the number of boundaries, whichever is most: 9 > 5 > 1 x 1 for Z/5
    # through degree 9
    for orders, bound in (((5,), 9), ((2, 3), 7), ((2, 2, 2), 6), ((2, 4, 4), 4), ((3, 3, 3), 8), ((2, 2, 2, 2), 6)):
        homology._resolution.cache_clear()
        res = resolution_for(product_group(orders), bound)
        cells = res.ranks[-2] * res.ranks[-1]
        # the length is charged first, then the norm element, then the cells
        needs = {cells: "cells", max(orders): "terms", bound: "boundaries"}
        charge = max(needs)
        homology._resolution.cache_clear()
        with budget(charge - 1), pytest.raises(BudgetExceeded, match="needs %d %s" % (charge, needs[charge])):
            resolution_for(product_group(orders), bound)
        with budget(charge):
            assert resolution_for(product_group(orders), bound).ranks == res.ranks
    homology._resolution.cache_clear()


def test_the_charged_ranks_are_the_built_ones():
    # the charge reads rank n of k cyclic factors and r free generators in
    # closed form; the tensor product builds the same ranks, through the
    # bound, or over Z^r alone through min(bound, r)
    for orders, r, bound in (((2,), 1, 6), ((2, 3), 2, 5), ((3,), 3, 4), ((2, 2, 2), 1, 3), ((), 5, 7), ((), 2, 1)):
        res = resolution_for(laurent_extension(product_group(orders), r), bound)
        length = bound if orders else min(bound, r)
        assert res.ranks == tuple(homology._rank(len(orders), r, n) for n in range(length + 1))
    # a finite group keeps its length, the trivial group too
    assert resolution_for(trivial_group(), 6).ranks == (1, 0, 0, 0, 0, 0, 0)
    assert resolution_for(product_group((1, 1)), 3).ranks == (1, 0, 0, 0)


def test_a_free_abelian_resolution_is_charged_by_its_largest_boundary():
    # over Z^r alone the ranks C(r, n) fall after degree r/2, so the
    # largest boundary is charged, not the top one: Z^4 through degree 6
    # ends at degree 4, with ranks 1, 4, 6, 4, 1, and d_3 is 4 x 6
    g = laurent_extension(trivial_group(), 4)
    homology._resolution.cache_clear()
    with budget(23), pytest.raises(
        BudgetExceeded, match="resolution through degree 6 needs 24 cells in its boundary d_3, budget 23"
    ):
        resolution_for(g)
    with budget(24):
        assert resolution_for(g).ranks == (1, 4, 6, 4, 1)
    # Z^20 through degree 20 would build d_11, C(20, 10) x C(20, 11), where
    # its top boundary is 20 x 1
    cells = math.comb(20, 10) * math.comb(20, 11)
    with budget(100000), pytest.raises(BudgetExceeded, match="needs %d cells in its boundary d_11, budget 100000" % cells):
        resolution_for(laurent_extension(trivial_group(), 20), 20)
    homology._resolution.cache_clear()


def test_a_cell_bound_that_prints_leaves_the_exact_need_in_the_message():
    # one term of each rank bounds the cells from below, and is charged
    # first only when it is too long to print.  Over Z/2 x Z^2000 every
    # rank above degree 2000 is 2^2000, and the bound 2^1000 x 2^1000
    # prints, so the message holds the exact need
    g = laurent_extension(cyclic_group(2), 2000)
    with budget(100000), pytest.raises(BudgetExceeded) as info:
        resolution_for(g, 99999)
    assert str(info.value) == "resolution through degree 99999 needs %d cells in its top boundary, budget 100000" % 4**2000
    for k, r, n in itertools.product(range(1, 4), range(7), range(12)):
        assert 1 <= homology._rank_floor(k, r, n) <= homology._rank(k, r, n), (k, r, n)


def test_cache_keys_are_normalised():
    g = product_group((2, 4))
    homology._resolution.cache_clear()
    assert resolution_for(g) is resolution_for(g, DEFAULT_DEGREE_BOUND)
    assert homology._resolution.cache_info().currsize == 1


def _split_once(hs):
    """The rank-one Kunneth step H_n(pi x Z) = H_n(pi) + H_(n-1)(pi), on a
    list H_0..H_top: the oracle that iterating it gives rank r."""
    below = [ZERO] + hs[:-1]
    return [AbelianInvariants.from_diag(a.free_rank + b.free_rank, a.torsion + b.torsion) for a, b in zip(hs, below)]


def test_laurent_extension_homology():
    g5 = cyclic_group(5)
    g = laurent_extension(g5, 1)
    assert [group_homology(g, trivial_char(g), n) for n in range(5)] == [Z, AbelianInvariants.from_diag(1, (5,)), c(5), c(5), c(5)]
    # ranks 2 and 3 agree with applying the rank-1 step two and three times,
    # untwisted over Z/5 and twisted on the finite factor of Z/2
    for base, signs in ((g5, (1,)), (cyclic_group(2), (-1,)), (cyclic_group(2), (1,))):
        hs = [group_homology(base, char_from_signs(base, signs), n) for n in range(5)]
        for r in (1, 2, 3):
            hs = _split_once(hs)
            g = laurent_extension(base, r)
            w = char_from_signs(g, signs + (1,) * r)
            assert [group_homology(g, w, n) for n in range(5)] == hs, (base, signs, r)


def _circle_step(hs, sign):
    """H_0..H_top of G x Z from those of G, when the new generator acts on
    the coefficients by sign: Kunneth with the circle, whose complex
    Z --(sign - 1)--> Z has homology Z, Z for sign +1 and Z/2, 0 for -1, so
    H_n(G x Z; Z^w) = H_n(G)/2 + H_(n-1)(G)[2] for sign -1."""
    if sign == 1:
        return _split_once(hs)

    def evens(h):
        return sum(1 for t in h.torsion if t % 2 == 0)

    below = [ZERO] + hs[:-1]
    return [AbelianInvariants(0, (2,) * (a.free_rank + evens(a) + evens(b))) for a, b in zip(hs, below)]


def _laurent_ranks(k, r, bound):
    """The ranks of k periodic factors tensored with r circles, in closed
    form: the coefficient of x^n in (1 + x)^r / (1 - x)^k.  With k = 0 this
    is the Koszul resolution of Z^r, which ends at degree r."""
    if k == 0:
        return tuple(math.comb(r, n) for n in range(min(bound, r) + 1))
    return tuple(
        sum(math.comb(r, j) * math.comb(n - j + k - 1, k - 1) for j in range(min(r, n) + 1)) for n in range(bound + 1)
    )


@pytest.mark.parametrize("orders", [(), (2,), (3,), (4,), (2, 2)], ids=lambda o: "x".join(map(str, o)) or "1")
def test_laurent_homology_matches_the_circle_closed_forms(orders):
    # every character of pi x Z^r, r <= 3, in degrees 0..5: the closed-form
    # step above from perfbench's finite homology, and perfbench's Kunneth
    # of the finite part with one circle per free generator; neither shares
    # code with the resolution
    top = 5
    base = product_group(orders)
    finite_signs = list(itertools.product(*((1, -1) if o % 2 == 0 else (1,) for o in orders)))
    for r in (1, 2, 3):
        g = laurent_extension(base, r)
        res = resolution_for(g)
        assert validate(res)
        assert res.ranks == _laurent_ranks(len(orders), r, DEFAULT_DEGREE_BOUND), (orders, r)
        for signs in finite_signs:
            if orders:
                finite = [oracles.group_homology(orders, signs, n) for n in range(top + 1)]
            else:
                finite = [(1, ())] + [(0, ())] * top
            for free_signs in itertools.product((1, -1), repeat=r):
                hs = [AbelianInvariants.from_diag(f, t) for f, t in finite]
                kunneth = finite
                for sign in free_signs:
                    hs = _circle_step(hs, sign)
                    circle = [(1, []), (1, [])] if sign == 1 else [(0, [2]), (0, [])]
                    kunneth = oracles.kunneth(kunneth, circle + [(0, [])] * (top - 1))
                w = char_from_signs(g, signs + free_signs)
                got = [group_homology(g, w, n) for n in range(top + 1)]
                assert got == hs, (orders, signs, free_signs)
                assert [oracles.canonical(h.free_rank, h.torsion) for h in got] == [
                    oracles.canonical(f, t) for f, t in kunneth
                ], (orders, signs, free_signs)


def test_free_abelian_homology_is_the_exterior_algebra():
    # H_n(Z^r) = Z^C(r, n), which is 0 above r, where the resolution ends;
    # a character that is -1 on some generator leaves (Z/2)^C(r-1, n), by
    # Kunneth with the circle Z --(-2)--> Z in that direction
    for r in range(1, 5):
        g = laurent_extension(trivial_group(), r)
        assert resolution_for(g).top_degree == r
        for signs in itertools.product((1, -1), repeat=r):
            got = [group_homology(g, char_from_signs(g, signs), n) for n in range(r + 3)]
            if -1 in signs:
                expected = [AbelianInvariants(0, (2,) * math.comb(r - 1, n)) for n in range(r + 3)]
            else:
                expected = [AbelianInvariants(math.comb(r, n), ()) for n in range(r + 3)]
            assert got == expected, (r, signs)


def test_h4_of_pi_cross_z():
    g = laurent_extension(cyclic_group(5))
    w = trivial_char(g)
    assert group_homology(g, w, 4) == c(5)
    base = cyclic_group(2)
    gx = laurent_extension(base)
    wx = char_from_signs(gx, (-1, 1))
    # H_4 + H_3 of Z/2 with the twisted system: Z/2 + 0
    assert group_homology(gx, wx, 4) == c(2)
    # reversing the free direction: H_4(Z/2)/2 + H_3(Z/2)[2] = 0 + Z/2
    assert group_homology(gx, char_from_signs(gx, (1, -1)), 4) == c(2)


def trivial_module(group):
    one = ring_one(group)
    gens = [ring_generator(group, i) for i in range(group.ngens)]
    rel = RingMatrix(group, 1, len(gens), [[g - one for g in gens]])
    return fpmodule_cokernel(rel)


def test_module_homology_trivial_module_recovers_group_homology():
    for g, signs in (
        (cyclic_group(3), (1,)),
        (cyclic_group(2), (-1,)),
        (product_group((2, 2)), (1, 1)),
        (product_group((2, 2)), (-1, -1)),
    ):
        res = resolution_for(g)
        w = char_from_signs(g, signs)
        m = trivial_module(g)
        for n in range(4):
            assert module_homology(res, w, m, n) == group_homology(g, w, n), (g, signs, n)


def test_module_homology_free_module_is_acyclic():
    g = product_group((2, 2))
    res = resolution_for(g)
    w = trivial_char(g)
    free = fpmodule_free(g, 1)
    assert module_homology(res, w, free, 0) == Z
    for n in range(1, 4):
        assert module_homology(res, w, free, n) == ZERO


def test_a_character_of_another_group_is_refused():
    g = cyclic_group(4)
    w = char_from_signs(product_group((2, 2)), (1, -1))
    with pytest.raises(GroupMismatch):
        group_homology(g, w, 0)
    with pytest.raises(GroupMismatch):
        group_homology(laurent_extension(g), w, 0)
    with pytest.raises(GroupMismatch):
        module_homology(resolution_for(g), w, trivial_module(g), 0)


def test_a_module_over_another_group_is_refused():
    g = cyclic_group(4)
    res = resolution_for(g)
    other = fpmodule_kernel(presentation_complex(product_group((2, 2))).d(2))
    for n in range(3):
        with pytest.raises(GroupMismatch):
            module_homology(res, trivial_char(g), other, n)
    # the resolution, not only the character, must be over the module's group
    with pytest.raises(GroupMismatch):
        module_homology(res, trivial_char(other.group), other, 1)
    with pytest.raises(GroupMismatch):
        other.coordinate_map(res.d(1))
