"""RingMatrix.augment is the one owner of d (x) Z^w.

A ring matrix builds its integer image under a character the first time
it is read and keeps it, so its Smith form is kept with it: each
augmented boundary is reduced once, whether it is read as d_out in one
degree, as d_in in the next, by an induced map, or, when a periodic
resolution reuses one matrix in several degrees, in each of them.  The
counts below are taken on cold caches; each was higher when every read
built a new matrix, and again when the image was kept per degree.
"""

import pytest

from fourfold import complexes, homology, intmat
from fourfold.classify import bordism_group
from fourfold.complexes import homology_Zw
from fourfold.errors import DegreeOutOfRange, GroupMismatch, budget
from fourfold.groupring import (
    char_from_signs,
    cyclic_group,
    laurent_extension,
    product_group,
    trivial_char,
)
from fourfold.homology import group_homology, resolution_for
from fourfold.intmat import AbelianInvariants
from fourfold.manifolds import LensSpace, lens_times_circle, rp4_complex


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
    # augment() reads the trivial character and shares its kept matrix
    assert d2.augment() is plain
    assert d2.augment(w) is m


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


def test_twisted_homology_is_kept_per_complex_character_and_degree(monkeypatch):
    calls = []
    invariants = complexes.homology_invariants

    def counting(d_out, d_in, rank):
        calls.append(rank)
        return invariants(d_out, d_in, rank)

    monkeypatch.setattr(complexes, "homology_invariants", counting)
    homology._resolution.cache_clear()
    g = product_group((2, 4))
    chars = (trivial_char(g), char_from_signs(g, (-1, 1)))
    first = [[group_homology(g, w, n) for n in range(6)] for w in chars]
    for _ in range(2):
        assert [[group_homology(g, w, n) for n in range(6)] for w in chars] == first
    assert len(calls) == 12
    # budget 42 admits the resolution (its top boundary is 6 x 7), which is
    # then built again under that key and its homology computed again
    for _ in range(2):
        with budget(42):
            assert [[group_homology(g, w, n) for n in range(6)] for w in chars] == first
    assert len(calls) == 24
    assert [[group_homology(g, w, n) for n in range(6)] for w in chars] == first
    assert len(calls) == 24
    c = lens_times_circle(LensSpace(7, 2))
    del calls[:]
    once = [homology_Zw(c, i) for i in range(c.top_degree + 1)]
    assert once[1] == AbelianInvariants(1, (7,))
    for _ in range(2):
        assert [homology_Zw(c, i) for i in range(c.top_degree + 1)] == once
    assert len(calls) == c.top_degree + 1
    homology._resolution.cache_clear()


def test_homology_zw_reduces_each_boundary_once(cold_reductions):
    c = lens_times_circle(LensSpace(7, 2))
    got = [homology_Zw(c, i) for i in range(c.top_degree + 1)]
    assert got[1] == AbelianInvariants(1, (7,))
    # one reduction per boundary of the 4-complex; 8 when rebuilt per read
    assert len(cold_reductions) == 4


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
