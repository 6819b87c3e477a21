"""Model manifolds: lens spaces, their products with the circle, and the
small closed 4-manifold anchors."""

import os
import sys

import pytest

from fourfold.complexes import homology_Zw, twisted_dual, validate
from fourfold.manifolds import (
    LensSpace,
    LinkingForm,
    cp2_complex,
    fundamental_class_invariant,
    lens_complex,
    lens_homotopy_equivalent,
    lens_times_circle,
    linking_form,
    linking_isometric,
    rp4_complex,
    s4_complex,
    torus4_complex,
)
from fourfold.intmat import AbelianInvariants
from fourfold.errors import InvalidLens, OrderMismatch
from fourfold.serialize import emit_complex

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(PERFBENCH)

import make_data  # noqa: E402

DOCUMENTS = make_data._documents()

Z = AbelianInvariants(1, ())
ZERO = AbelianInvariants(0, ())


def c(*torsion):
    return AbelianInvariants(0, tuple(torsion))


def euler_char_mod2(cx):
    """The Euler characteristic of a complex, mod 2."""
    return sum(r if i % 2 == 0 else -r for i, r in enumerate(cx.ranks)) % 2


def hlist(cx):
    return [homology_Zw(cx, i) for i in range(cx.top_degree + 1)]


def test_lens_space_validation():
    with pytest.raises(InvalidLens):
        LensSpace(1, 1)
    with pytest.raises(InvalidLens):
        LensSpace(4, 2)
    assert str(LensSpace(7, 2)) == "L(7,2)"


def test_lens_complex_homology():
    for p, q in ((5, 1), (5, 2), (7, 3), (8, 3)):
        cx = lens_complex(LensSpace(p, q))
        assert hlist(cx) == [Z, c(p), ZERO, Z]


def test_fundamental_class_invariant():
    assert fundamental_class_invariant(LensSpace(5, 1)) == 1
    assert fundamental_class_invariant(LensSpace(5, 2)) == 3
    assert fundamental_class_invariant(LensSpace(7, 2)) == 4


def test_lens_homotopy_anchors():
    eq, r, sign = lens_homotopy_equivalent(5, 1, 2)
    assert not eq and r is None and sign is None
    eq, r, sign = lens_homotopy_equivalent(7, 1, 2)
    assert eq and r == 3 and sign == 1
    # q2 = -q1 is witnessed by r = 1 with the orientation flipped
    eq, r, sign = lens_homotopy_equivalent(5, 1, 4)
    assert eq and r == 1 and sign == -1


def test_lens_homotopy_is_an_equivalence():
    import math

    for p in (5, 7, 8, 9):
        units = [q for q in range(1, p) if math.gcd(q, p) == 1]
        for q1 in units:
            assert lens_homotopy_equivalent(p, q1, q1)[0]
            for q2 in units:
                a = lens_homotopy_equivalent(p, q1, q2)[0]
                b = lens_homotopy_equivalent(p, q2, q1)[0]
                assert a == b
                if not a:
                    continue
                for q3 in units:
                    if lens_homotopy_equivalent(p, q2, q3)[0]:
                        assert lens_homotopy_equivalent(p, q1, q3)[0]


def test_lens_homotopy_witness_is_valid():
    import math

    for p in (7, 9, 11, 12):
        units = [q for q in range(1, p) if math.gcd(q, p) == 1]
        for q1 in units:
            for q2 in units:
                eq, r, sign = lens_homotopy_equivalent(p, q1, q2)
                if eq:
                    assert (q2 - sign * r * r * q1) % p == 0


def test_lens_parameter_validation():
    with pytest.raises(InvalidLens):
        lens_homotopy_equivalent(6, 2, 1)
    with pytest.raises(InvalidLens):
        lens_homotopy_equivalent(1, 1, 1)


def test_linking_form():
    f = linking_form(LensSpace(5, 2))
    assert f.order == 5 and f.value == 2
    assert f.evaluate_num(1, 1) == 3  # -2 mod 5
    with pytest.raises(InvalidLens):
        LinkingForm(4, 2)
    with pytest.raises(OrderMismatch):
        linking_isometric(LinkingForm(5, 1), LinkingForm(7, 1))


def test_linking_isometry_anchors():
    iso, u, sign = linking_isometric(linking_form(LensSpace(7, 1)), linking_form(LensSpace(7, 2)))
    assert iso and u == 3 and sign == 1
    iso, u, sign = linking_isometric(linking_form(LensSpace(5, 1)), linking_form(LensSpace(5, 2)))
    assert not iso


def test_linking_matches_homotopy_for_lens_spaces():
    import math

    for p in (5, 7, 8, 9, 11):
        units = [q for q in range(1, p) if math.gcd(q, p) == 1]
        for q1 in units:
            for q2 in units:
                a = lens_homotopy_equivalent(p, q1, q2)[0]
                b = linking_isometric(
                    linking_form(LensSpace(p, q1)), linking_form(LensSpace(p, q2))
                )[0]
                assert a == b, (p, q1, q2)


def test_s4_homology():
    cx = s4_complex()
    assert hlist(cx) == [Z, ZERO, ZERO, ZERO, Z]
    assert euler_char_mod2(cx) == 0


def test_cp2_homology():
    cx = cp2_complex()
    assert hlist(cx) == [Z, ZERO, Z, ZERO, Z]
    assert euler_char_mod2(cx) == 1


def test_rp4_homology():
    cx = rp4_complex()
    # coefficients twisted by the orientation character
    assert hlist(cx) == [c(2), ZERO, c(2), ZERO, Z]
    assert euler_char_mod2(cx) == 1
    # untwisted values via the dual: top boundary becomes t - 1
    from fourfold.groupring import trivial_char
    from fourfold.complexes import LambdaComplex

    untw = LambdaComplex(cx.group, trivial_char(cx.group), cx.ranks, cx.boundaries)
    assert hlist(untw) == [Z, c(2), ZERO, c(2), ZERO]


def test_torus4_homology():
    cx = torus4_complex()
    assert cx.ranks == (1, 4, 6, 4, 1)
    assert hlist(cx) == [
        Z,
        AbelianInvariants(4, ()),
        AbelianInvariants(6, ()),
        AbelianInvariants(4, ()),
        Z,
    ]
    assert euler_char_mod2(cx) == 0


def test_lens_times_circle_homology():
    for p, q in ((5, 1), (7, 2)):
        cx = lens_times_circle(LensSpace(p, q))
        assert hlist(cx) == [Z, AbelianInvariants.from_diag(1, (p,)), c(p), Z, Z]


def test_twisted_dual_symmetry_all_builtin_manifolds():
    complexes = [
        s4_complex(),
        cp2_complex(),
        rp4_complex(),
        torus4_complex(),
        lens_times_circle(LensSpace(5, 1)),
        lens_times_circle(LensSpace(5, 2)),
        lens_times_circle(LensSpace(7, 2)),
    ]
    for cx in complexes:
        dual = twisted_dual(cx)
        validate(dual)
        for i in range(cx.top_degree + 1):
            assert homology_Zw(dual, i) == homology_Zw(cx, i), (cx, i)


# The committed benchmark documents were emitted by the builders that
# preceded the pieces of complexes; each model still emits them byte for
# byte.  The documents are only read.
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_the_models_emit_the_committed_documents(name):
    with open(os.path.join(PERFBENCH, "data", "docs", name + ".json"), encoding="utf-8") as fh:
        assert emit_complex(DOCUMENTS[name]) == fh.read()
