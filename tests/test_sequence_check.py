"""d_2 . d_3 = 0 is the one hypothesis of the exactness of
0 -> ker d_2 -> C_2 (+) H_2 -> coker d_3 -> 0, and the LambdaComplex
constructor checks it, so pi2_sequence_check answers True on every
complex of the degrees and group it needs.

ref_pi2_sequence_check below is a frozen copy of the function as it was
before: it built the sequence on integer presentations and checked
injectivity, composite zero and exactness in the middle with Smith forms
of expanded matrices.  The two must agree on valid complexes (lens
spaces, the model 4-manifolds, and presentation complexes extended by a
d_3 built from kernel generators) and in the errors they raise.  Where
d_2 . d_3 != 0 the constructor raises NotAComplex(3), and the frozen
check, run on the same boundaries built without that check, says False.
"""

import random

import pytest

from fourfold.complexes import (
    LambdaComplex,
    _exact_complex,
    cross_circle,
    point_complex,
    presentation_complex,
    validate,
)
from fourfold.errors import FourfoldError, NotAComplex
from fourfold.extensions import pi2_sequence_check
from fourfold.groupring import RingElement, RingMatrix, cyclic_group, product_group
from fourfold.intmat import IntMatrix, hstack, kernel_basis, preimage_kernel, solve_columns, vstack
from fourfold.manifolds import LensSpace, cp2_complex, lens_complex, lens_times_circle, rp4_complex, s4_complex


# ---- frozen reference: the check as it was ------------------------------------


def ref_pi2_sequence_check(c):
    """Exactness of 0 -> ker d_2 -> C_2 (+) H_2 -> coker d_3 -> 0 over Z.

    Verified directly on integer presentations: injectivity, composite
    zero, image equals kernel in the middle, surjectivity at the end.
    """
    d2x = c.d(2).expand()
    d3x = c.d(3).expand()
    amb = d2x.cols
    k = kernel_basis(d2x)
    s = k.cols
    xcols = solve_columns(k, d3x.columns())
    if None in xcols:
        return False
    xmat = IntMatrix.from_columns(xcols, s)
    # middle = Z^amb (+) Z^s / L_mid,  L_mid = {(0, x_j)}
    l_mid = vstack(IntMatrix.zeros(amb, xmat.cols), xmat)
    # first map a |-> (k a, -a)
    iota = vstack(k, -IntMatrix.identity(s))
    # injectivity: nothing maps into L_mid except 0
    pre = preimage_kernel(iota, l_mid)
    if pre.cols != 0:
        return False
    # second map (c, h) |-> c + k h mod im d_3
    second = hstack(IntMatrix.identity(amb), k)
    # composite is zero mod im d_3
    if None in solve_columns(d3x, (second * iota).columns()):
        return False
    # kernel of the second map equals the image of the first, inside middle
    ker_mid = preimage_kernel(second, d3x)
    if None in solve_columns(hstack(iota, l_mid), ker_mid.columns()):
        return False
    return None not in solve_columns(hstack(ker_mid, l_mid), iota.columns())


# ---- cases --------------------------------------------------------------------


def _random_ring_matrix(rng, group, rows, cols):
    els = group.elements()

    def entry():
        return RingElement(group, {rng.choice(els): rng.randint(-2, 2) for _ in range(2)})

    return RingMatrix(group, rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def _with_d3(c, d3, build=LambdaComplex):
    """c with one more boundary d3 on top, built by build."""
    return build(c.group, c.w, c.ranks[:3] + (d3.cols,), c.boundaries[:2] + (d3,))


PRESENTED = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 3)]


def _valid_complexes():
    """72 complexes with d.d = 0: every lens space with p <= 12, rp4, s4,
    cp2, and three per presentation complex with d_3 = K R for the ring
    kernel generators K of d_2 and a random ring matrix R."""
    out = {}
    for p in range(2, 13):
        for q in range(1, p):
            try:
                lens = LensSpace(p, q)
            except FourfoldError:
                continue
            out["L(%d,%d)" % (p, q)] = lens_complex(lens)
    out.update(rp4=rp4_complex(), s4=s4_complex(), cp2=cp2_complex())
    rng = random.Random(9)
    for orders in PRESENTED:
        pres = presentation_complex(product_group(orders))
        k = pres.d(2).kernel()
        for i, rank in enumerate((1, 2, 2)):
            c = _with_d3(pres, k * _random_ring_matrix(rng, pres.group, k.cols, rank))
            validate(c)
            out["x".join(map(str, orders)) + "/%d" % i] = c
    return out


def _invalid_complexes():
    """(complex, d_3) with d_1 . d_2 = 0 and a d_3 that d_2 does not kill."""
    rng = random.Random(11)
    out = {}
    lens = lens_complex(LensSpace(5, 2))
    out["L(5,2), d_3 = 1"] = (lens, RingMatrix.identity(lens.group, 1))
    rp4 = rp4_complex()
    out["rp4, d_3 = d_2"] = (rp4, rp4.d(2))
    for orders in ((2, 2), (3,), (2, 3)):
        pres = presentation_complex(product_group(orders))
        out["x".join(map(str, orders)) + ", random d_3"] = (
            pres,
            _random_ring_matrix(rng, pres.group, pres.ranks[2], 2),
        )
    return out


VALID = _valid_complexes()
INVALID = _invalid_complexes()


def _outcome(check, c):
    try:
        return check(c)
    except FourfoldError as exc:
        return type(exc)


def test_the_valid_set_has_72_complexes():
    assert len(VALID) == 72


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_complexes_agree_with_the_frozen_check(name):
    c = VALID[name]
    assert pi2_sequence_check(c) is True
    assert ref_pi2_sequence_check(c) is True


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_complexes_agree_with_the_frozen_check(name):
    base, d3 = INVALID[name]
    with pytest.raises(NotAComplex) as e:
        _with_d3(base, d3)
    assert e.value.degree == 3
    c = _with_d3(base, d3, build=_exact_complex)
    assert (c.d(1) * c.d(2)).is_zero()
    assert ref_pi2_sequence_check(c) is False


def _one_skeleton(group):
    pres = presentation_complex(group)
    return LambdaComplex(group, pres.w, pres.ranks[:2], pres.boundaries[:1])


ERROR_CASES = {
    "lens x circle": lambda: lens_times_circle(LensSpace(5, 2)),
    "Z/2 presentation x circle": lambda: cross_circle(presentation_complex(cyclic_group(2))),
    "Z/3 1-skeleton x circle": lambda: cross_circle(_one_skeleton(cyclic_group(3))),
    "point x circle": lambda: cross_circle(point_complex()),
    "Z/3 presentation": lambda: presentation_complex(cyclic_group(3)),
    "Z/2 x Z/2 presentation": lambda: presentation_complex(product_group((2, 2))),
    "Z/3 1-skeleton": lambda: _one_skeleton(cyclic_group(3)),
}


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_errors_agree_with_the_frozen_check(name):
    c = ERROR_CASES[name]()
    new = _outcome(pi2_sequence_check, c)
    assert isinstance(new, type) and issubclass(new, FourfoldError)
    assert new is _outcome(ref_pi2_sequence_check, c)
