"""LambdaComplex.augmented is the one owner of d_i (x) Z^w.

A complex builds the integer matrix of a boundary under a character the
first time it is read and keeps it, so its Smith form is kept with it:
each augmented boundary is reduced once, whether it is read as d_out in
one degree, as d_in in the next, or by an induced map.  The counts below
are taken on cold caches; each was higher when every read built a new
matrix.  No module in src/ other than complexes augments a boundary of
a complex itself.
"""

import ast
import pathlib

import pytest

from fourfold import homology, intmat
from fourfold.classify import bordism_group
from fourfold.complexes import homology_Zw
from fourfold.errors import DegreeOutOfRange, GroupMismatch
from fourfold.groupring import (
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

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fourfold"


@pytest.fixture
def cold_reductions(monkeypatch):
    """Empty the homology caches and list every matrix intmat reduces."""
    homology._resolution.cache_clear()
    homology._group_homology.cache_clear()
    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    yield reduced
    homology._resolution.cache_clear()
    homology._group_homology.cache_clear()


def test_augmented_is_kept_per_degree_and_character():
    c = rp4_complex()
    w = c.w
    m = c.augmented(2, w)
    assert m == c.d(2).augment(w)
    assert c.augmented(2, w) is m
    other = trivial_char(c.group)
    assert other != w
    assert c.augmented(2, other) == c.d(2).augment(other)
    assert c.augmented(2, other) is not m
    assert c.augmented(2, w) is m


def test_augmented_builds_only_the_boundary_it_reads(monkeypatch):
    built = []
    augment = RingMatrix.augment

    def counting(self, w=None):
        built.append(self)
        return augment(self, w)

    monkeypatch.setattr(RingMatrix, "augment", counting)
    c = rp4_complex()
    c.augmented(3, c.w)
    c.augmented(3, c.w)
    assert built == [c.d(3)] and built[0] is c.d(3)


def test_augmented_refuses_a_character_of_another_group():
    c = rp4_complex()
    with pytest.raises(GroupMismatch):
        c.augmented(1, trivial_char(cyclic_group(4)))
    # same signs, other group: the kept matrix of Z/2 is not handed out
    c.augmented(1, trivial_char(c.group))
    with pytest.raises(GroupMismatch):
        c.augmented(1, trivial_char(cyclic_group(4)))
    with pytest.raises(DegreeOutOfRange):
        c.augmented(c.top_degree + 1, c.w)


def test_group_homology_reduces_each_boundary_once(cold_reductions):
    g = product_group((2, 4))
    w = char_from_signs(g, (-1, 1))
    got = [group_homology(g, w, n) for n in range(5)]
    assert got[4] == AbelianInvariants(0, (2, 2, 2))
    # d_1..d_5 of the default resolution; 9 when d_out and d_in were rebuilt
    assert len(cold_reductions) == 5
    res = resolution_for(g)
    assert all(any(a is res.augmented(i, w) for a in cold_reductions) for i in range(1, 6))


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
    assert all(any(a is res.augmented(i, w) for a in cold_reductions) for i in range(1, 7))


def test_homology_zw_reduces_each_boundary_once(cold_reductions):
    c = lens_times_circle(LensSpace(7, 2))
    got = [homology_Zw(c, i) for i in range(c.top_degree + 1)]
    assert got[1] == AbelianInvariants(1, (7,))
    # one reduction per boundary of the 4-complex; 8 when rebuilt per read
    assert len(cold_reductions) == 4


def test_bordism_group_reduces_each_boundary_once(cold_reductions):
    g = laurent_extension(cyclic_group(6))
    assert bordism_group(g, trivial_char(g))[1] == AbelianInvariants(0, (6,))
    # H_0..H_4 of Z/6 for the Kunneth split: 5 reductions, 9 when rebuilt
    assert len(cold_reductions) == 5


def _augments_a_boundary(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "augment"
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Attribute)
        and node.func.value.func.attr == "d"
    )


def test_only_complexes_augments_a_boundary():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    offenders = []
    for path in paths:
        if path.name == "complexes.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders.extend("%s:%d" % (path.name, n.lineno) for n in ast.walk(tree) if _augments_a_boundary(n))
    assert offenders == []
    # the guard sees the call it forbids
    assert _augments_a_boundary(ast.parse("c.d(3).augment(w)").body[0].value)
