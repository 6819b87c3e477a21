"""RingMatrix.augment is the one owner of d (x) Z^w.

A ring matrix builds its integer image under a character the first time
it is read and keeps it, so its Smith form is kept with it: each
augmented boundary is reduced once, whether it is read as d_out in one
degree, as d_in in the next, by an induced map, or, when a periodic
resolution reuses one matrix in several degrees, in each of them.  The
counts below are taken on cold caches; each was higher when every read
built a new matrix, and again when the image was kept per degree.
"""

import random

import pytest

from fourfold import homology, intmat
from fourfold.classify import bordism_group
from fourfold.complexes import homology_Zw
from fourfold.errors import DegreeOutOfRange, GroupMismatch, budget
from fourfold.groupring import (
    RingElement,
    RingMatrix,
    char_from_signs,
    cyclic_group,
    laurent_extension,
    product_group,
    trivial_char,
)
from fourfold.homology import group_homology, resolution_for
from fourfold.intmat import AbelianInvariants
from fourfold.manifolds import LensSpace, lens_times_circle, rp4_complex

from test_smith_homology import admissible_chars


@pytest.fixture
def cold_reductions(monkeypatch):
    """Empty the homology caches and list every matrix intmat reduces."""
    homology._resolution.cache_clear()
    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    yield reduced
    homology._resolution.cache_clear()


def test_augment_is_kept_per_character():
    c = rp4_complex()
    w = c.w
    d2 = c.d(2)
    m = d2.augment(w)
    assert m.data == [[e.twisted_augmentation(w) for e in r] for r in d2.entries]
    assert d2.augment(w) is m
    other = trivial_char(c.group)
    assert other != w
    plain = d2.augment(other)
    assert plain.data == [[sum(e.terms.values()) for e in r] for r in d2.entries]
    assert plain is not m
    # an equal character shares the kept matrix; every image takes its character
    assert d2.augment(trivial_char(c.group)) is plain
    with pytest.raises(TypeError):
        d2.augment()
    assert d2.augment(w) is m


def _random_element(rng, g):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        el = tuple(rng.randrange(o) for o in g.orders) + tuple(rng.randint(-3, 3) for _ in range(g.laurent_rank))
        terms[el] = rng.randint(-5, 5)
    return RingElement(g, terms)


@pytest.mark.parametrize("g", [product_group((2, 4)), laurent_extension(cyclic_group(3))], ids=str)
def test_augment_collapses_shared_entries_like_distinct_ones(g):
    # tensor_complex and periodic_complex put one entry object in many
    # cells; augment collapses each object once, which must give what
    # twisted_augmentation gives cell by cell, shared or not
    rng = random.Random(3701)
    chars = admissible_chars(g)
    assert len(chars) == (4 if g.laurent_rank == 0 else 2)
    for _ in range(20):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        pool = [_random_element(rng, g) for _ in range(rng.randint(1, 4))]
        shared = RingMatrix(g, rows, cols, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])
        copies = RingMatrix(g, rows, cols, [[RingElement(g, dict(e.terms)) for e in r] for r in shared.entries])
        assert copies == shared
        assert len({id(e) for r in copies.entries for e in r}) == rows * cols
        for w in chars:
            expect = [[e.twisted_augmentation(w) for e in r] for r in shared.entries]
            assert shared.augment(w).data == expect, w.signs
            assert copies.augment(w).data == expect, w.signs


def test_augmented_builds_only_the_boundary_it_reads():
    c = lens_times_circle(LensSpace(7, 2))
    assert len({id(b) for b in c.boundaries}) == c.top_degree == 4
    assert homology_Zw(c, 1) == AbelianInvariants(1, (7,))
    kept = [i for i in range(1, 5) if c.d(i)._augmented]
    assert kept == [1, 2]


def test_augmented_refuses_a_character_of_another_group():
    c = rp4_complex()
    with pytest.raises(GroupMismatch):
        c.d(1).augment(trivial_char(cyclic_group(4)))
    # same signs, other group: the kept matrix of Z/2 is not handed out
    c.d(1).augment(trivial_char(c.group))
    with pytest.raises(GroupMismatch):
        c.d(1).augment(trivial_char(cyclic_group(4)))
    with pytest.raises(DegreeOutOfRange):
        c.d(c.top_degree + 1)


def test_group_homology_reduces_each_boundary_once(cold_reductions):
    g = product_group((2, 4))
    w = char_from_signs(g, (-1, 1))
    got = [group_homology(g, w, n) for n in range(5)]
    assert got[4] == AbelianInvariants(0, (2, 2, 2))
    # d_1..d_5 of the default resolution; 9 when d_out and d_in were rebuilt
    assert len(cold_reductions) == 5
    res = resolution_for(g)
    assert all(any(a is res.d(i).augment(w) for a in cold_reductions) for i in range(1, 6))


def test_group_homology_through_degree_5_builds_one_resolution(cold_reductions):
    g = product_group((2, 4))
    w = char_from_signs(g, (-1, 1))
    got = [group_homology(g, w, n) for n in range(6)]
    assert got[5] == AbelianInvariants(0, (2, 2, 2))
    # d_1..d_6 of one resolution; 2 builds and 7 reductions when degree 5
    # built a second resolution and reduced its d_5 again
    assert homology._resolution.cache_info().misses == 1
    assert len(cold_reductions) == 6
    res = resolution_for(g)
    assert all(any(a is res.d(i).augment(w) for a in cold_reductions) for i in range(1, 7))


def test_a_repeated_twisted_homology_read_reduces_nothing(cold_reductions):
    # no H_n is kept: each read goes back to the augmented boundaries and
    # the Smith forms they keep, so only the first read of a boundary
    # reduces it, per resolution object and character
    g = product_group((2, 4))
    chars = (trivial_char(g), char_from_signs(g, (-1, 1)))
    first = [[group_homology(g, w, n) for n in range(6)] for w in chars]
    assert len(cold_reductions) == 12
    for _ in range(2):
        assert [[group_homology(g, w, n) for n in range(6)] for w in chars] == first
    assert len(cold_reductions) == 12
    # budget 42 admits the resolution (its top boundary is 6 x 7), which is
    # then built again under that key and its boundaries reduced again
    for _ in range(2):
        with budget(42):
            assert [[group_homology(g, w, n) for n in range(6)] for w in chars] == first
    assert len(cold_reductions) == 24
    assert [[group_homology(g, w, n) for n in range(6)] for w in chars] == first
    assert len(cold_reductions) == 24
    c = lens_times_circle(LensSpace(7, 2))
    del cold_reductions[:]
    once = [homology_Zw(c, i) for i in range(c.top_degree + 1)]
    assert once[1] == AbelianInvariants(1, (7,))
    for _ in range(2):
        assert [homology_Zw(c, i) for i in range(c.top_degree + 1)] == once
    assert len(cold_reductions) == c.top_degree


def test_homology_zw_reduces_each_boundary_once(cold_reductions):
    c = lens_times_circle(LensSpace(7, 2))
    got = [homology_Zw(c, i) for i in range(c.top_degree + 1)]
    assert got[1] == AbelianInvariants(1, (7,))
    # one reduction per boundary of the 4-complex; 8 when rebuilt per read
    assert len(cold_reductions) == 4

def test_group_homology_multiplies_no_integer_matrix(cold_reductions, monkeypatch):
    # a resolution is a complex by construction, so reading H_n forms no
    # product d_n . d_(n+1) to re-check it: one reduction per distinct
    # augmented boundary and no IntMatrix product at all
    products = []
    mul = intmat.IntMatrix.__mul__

    def counting(a, b):
        products.append((a.rows, a.cols, b.cols))
        return mul(a, b)

    monkeypatch.setattr(intmat.IntMatrix, "__mul__", counting)
    g = product_group((2, 4))
    for w in (trivial_char(g), char_from_signs(g, (-1, 1)), char_from_signs(g, (1, -1))):
        del cold_reductions[:]
        for n in range(6):
            group_homology(g, w, n)
        assert products == []
        res = resolution_for(g)
        distinct = {id(res.d(i).augment(w)) for i in range(1, res.top_degree + 1)}
        assert len(cold_reductions) == len(distinct) == 6
        assert {id(a) for a in cold_reductions} == distinct


def test_bordism_group_reduces_each_boundary_once(cold_reductions):
    g = laurent_extension(cyclic_group(6))
    assert bordism_group(g, trivial_char(g))[1] == AbelianInvariants(0, (6,))
    # H_0..H_4 of Z/6 for the Kunneth split read the two boundaries that the
    # periodic resolution reuses: 2 reductions, 5 when kept per degree and 9
    # when rebuilt per read
    assert len(cold_reductions) == 2


def test_periodic_group_homology_reduces_two_matrices_per_character(cold_reductions):
    g = cyclic_group(6)
    res = resolution_for(g)
    zero, z2, z6 = AbelianInvariants(0, ()), AbelianInvariants(0, (2,)), AbelianInvariants(0, (6,))
    closed_forms = {
        (1,): [AbelianInvariants(1, ()), z6, zero, z6, zero, z6],
        (-1,): [z2, zero, z2, zero, z2, zero],
    }
    for signs, expected in closed_forms.items():
        w = char_from_signs(g, signs)
        del cold_reductions[:]
        assert [group_homology(g, w, n) for n in range(6)] == expected
        # d_1 = d_3 = d_5 and d_2 = d_4 = d_6 are one matrix each; 6 when
        # the augmented boundaries were kept per degree
        assert len(cold_reductions) == 2
        assert {id(a) for a in cold_reductions} == {id(res.d(1).augment(w)), id(res.d(2).augment(w))}
