"""Simple-homotopy moves leave every invariant of a complex unchanged.

Two moves over Z[pi] (Whitehead; Cohen, A Course in Simple-Homotopy
Theory, GTM 10):
  - a change of basis E = I + r e_ij of C_k (i != j, r in Z[pi]), which
    sends d_k to d_k E and d_(k+1) to E^-1 d_(k+1), with E^-1 = I - r e_ij;
  - the sum with a cancelling pair Z[pi] --(+-g)--> Z[pi] in degrees
    k+1 and k, for a group element g.
Each result is rebuilt through the public constructor, which checks
d.d = 0.  homology_Zw in every degree, homology_Lambda in every degree
(finite pi), and the groups, checks and verdict of hopf_check must not
move, and neither may the Ext group of pi2_extension nor whether its
class is trivial (or its error type where it does not apply).  Adding a
free Z[pi] in degree 2, the chain-level effect of # CP^2, adds Z to
H_2(Z^w) and Z^|pi| to H_2(Z[pi]) and leaves the extension outputs.
Dropping E^-1 leaves d_k E d_(k+1) = r (column i of d_k)(row j of
d_(k+1)), and where that is not zero the constructor refuses the result
with NotAComplex(k+1).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold.classify import hopf_check
from fourfold.complexes import LambdaComplex, homology_Lambda, homology_Zw, presentation_complex
from fourfold.errors import FourfoldError, NotAComplex
from fourfold.extensions import pi2_extension
from fourfold.groupring import RingElement, RingMatrix, product_group, ring_zero
from fourfold.intmat import AbelianInvariants
from fourfold.manifolds import LensSpace, cp2_complex, lens_complex, lens_times_circle, rp4_complex, s4_complex

MOVES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _padded(orders):
    """The presentation complex of Z/orders with zero-rank cells in
    degrees 3 and 4, so that hopf_check reads it as a 4-complex."""
    g = product_group(orders)
    c = presentation_complex(g)
    pad = (RingMatrix.zeros(g, c.ranks[2], 0), RingMatrix.zeros(g, 0, 0))
    return LambdaComplex(g, c.w, c.ranks + (0, 0), c.boundaries + pad)


MODELS = {
    "rp4": rp4_complex(),
    "cp2": cp2_complex(),
    "s4": s4_complex(),
    "L(5,2)": lens_complex(LensSpace(5, 2)),
    "L(7,3)xS1": lens_times_circle(LensSpace(7, 3)),
    "pres2": _padded((2,)),
    "pres3": _padded((3,)),
    "pres2x2": _padded((2, 2)),
    "pres2x3": _padded((2, 3)),
}


def invariants(c):
    """Every invariant the moves must keep; hopf_check and the pi_2
    extension class where they apply, their error types where they do
    not."""
    out = {"Zw": [homology_Zw(c, i) for i in range(c.top_degree + 1)]}
    if c.group.is_finite:
        out["Lambda"] = [homology_Lambda(c, i) for i in range(c.top_degree + 1)]
    try:
        report = hopf_check(c)
        out["hopf"] = (report.groups, report.checks, report.passed)
    except FourfoldError as exc:
        out["hopf"] = type(exc)
    try:
        e = pi2_extension(c)
        out["ext"] = (e.context.ext_invariants(), e.is_trivial())
    except FourfoldError as exc:
        out["ext"] = type(exc)
    return out


BASE = {name: invariants(c) for name, c in MODELS.items()}


# ---- moves on (ranks, boundaries), boundaries[k - 1] = d_k ----------------------


def _pad(m, rows=0, cols=0, corner=None):
    """m with rows zero rows and cols zero columns added, and corner in the
    new bottom-right entry when one is given."""
    z = ring_zero(m.group)
    entries = [row + [z] * cols for row in m.entries]
    entries += [[z] * (m.cols + cols) for _ in range(rows)]
    if corner is not None:
        entries[-1][-1] = corner
    return RingMatrix(m.group, m.rows + rows, m.cols + cols, entries)


def _elementary(group, n, i, j, r):
    """I + r e_ij, n x n."""
    e = RingMatrix.identity(group, n).entries
    e[i][j] = e[i][j] + r
    return RingMatrix(group, n, n, e)


def basis_change(c, k, i, j, r, inverse=True):
    """d_k -> d_k E and, with inverse, d_(k+1) -> E^-1 d_(k+1)."""
    bs = list(c.boundaries)
    if k >= 1:
        bs[k - 1] = bs[k - 1] * _elementary(c.group, c.ranks[k], i, j, r)
    if inverse and k < c.top_degree:
        bs[k] = _elementary(c.group, c.ranks[k], i, j, -r) * bs[k]
    return LambdaComplex(c.group, c.w, c.ranks, bs)


def cancelling_pair(c, k, unit):
    """The sum with Z[pi] --unit--> Z[pi] in degrees k+1, k."""
    ranks = list(c.ranks)
    ranks[k] += 1
    ranks[k + 1] += 1
    bs = list(c.boundaries)
    if k >= 1:
        bs[k - 1] = _pad(bs[k - 1], cols=1)
    bs[k] = _pad(bs[k], rows=1, cols=1, corner=unit)
    if k + 2 <= c.top_degree:
        bs[k + 1] = _pad(bs[k + 1], rows=1)
    return LambdaComplex(c.group, c.w, ranks, bs)


def free_cell(c, k):
    """The sum with a free Z[pi] in degree k, a cycle and no boundary."""
    ranks = list(c.ranks)
    ranks[k] += 1
    bs = list(c.boundaries)
    if k >= 1:
        bs[k - 1] = _pad(bs[k - 1], cols=1)
    if k < c.top_degree:
        bs[k] = _pad(bs[k], rows=1)
    return LambdaComplex(c.group, c.w, ranks, bs)


# ---- strategies ----------------------------------------------------------------


@st.composite
def group_elements(draw, group):
    """An exponent tuple: finite coordinates below their orders, Laurent
    coordinates in -2..2."""
    finite = [draw(st.integers(0, o - 1)) for o in group.orders]
    return tuple(finite + [draw(st.integers(-2, 2)) for _ in range(group.laurent_rank)])


@st.composite
def ring_elements(draw, group):
    terms = draw(st.lists(st.tuples(group_elements(group), st.integers(-3, 3)), min_size=1, max_size=3))
    return RingElement(group, dict(terms))


@st.composite
def units(draw, group):
    return RingElement(group, {draw(group_elements(group)): draw(st.sampled_from((1, -1)))})


@st.composite
def moved(draw):
    """(model name, the model after one to three moves)."""
    name = draw(st.sampled_from(sorted(MODELS)))
    c = MODELS[name]
    for _ in range(draw(st.integers(1, 3))):
        wide = [k for k in range(c.top_degree + 1) if c.ranks[k] >= 2]
        if wide and draw(st.booleans()):
            k = draw(st.sampled_from(wide))
            i, j = draw(st.lists(st.integers(0, c.ranks[k] - 1), min_size=2, max_size=2, unique=True))
            c = basis_change(c, k, i, j, draw(ring_elements(c.group)))
        else:
            # degrees 1..top: C_0 keeps its one cell, which hopf_check needs
            c = cancelling_pair(c, draw(st.integers(1, c.top_degree - 1)), draw(units(c.group)))
    return name, c


# ---- tests ---------------------------------------------------------------------


@MOVES
@given(case=moved())
def test_moves_keep_every_invariant(case):
    name, c = case
    assert invariants(c) == BASE[name]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_free_cell_in_degree_2_adds_z_and_z_pi(name):
    c = MODELS[name]
    sum_cp2 = free_cell(c, 2)
    base, new = BASE[name], invariants(sum_cp2)
    h = base["Zw"][2]
    assert new["Zw"][2] == AbelianInvariants(h.free_rank + 1, h.torsion)
    assert new["Zw"][:2] + new["Zw"][3:] == base["Zw"][:2] + base["Zw"][3:]
    if c.group.is_finite:
        h = base["Lambda"][2]
        assert new["Lambda"][2] == AbelianInvariants(h.free_rank + c.group.order(), h.torsion)
        assert new["Lambda"][:2] + new["Lambda"][3:] == base["Lambda"][:2] + base["Lambda"][3:]
    # the free cell adds Z[pi] to ker d_2 and to coker d_3, so Ext^1 gains
    # Ext^1(coker d_3, Z[pi]), which vanishes on every model
    assert new["ext"] == base["ext"]


@st.composite
def half_moves(draw):
    """A model with cancelling pairs in degrees k, k-1 and k+1, k, and a
    basis change of C_k for some 1 <= k < top, where both boundaries of
    C_k are present."""
    c = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    k = draw(st.integers(1, c.top_degree - 1))
    c = cancelling_pair(cancelling_pair(c, k - 1, draw(units(c.group))), k, draw(units(c.group)))
    i, j = draw(st.lists(st.integers(0, c.ranks[k] - 1), min_size=2, max_size=2, unique=True))
    return c, k, i, j, draw(ring_elements(c.group))


@MOVES
@given(case=half_moves())
def test_dropping_the_inverse_is_refused_where_it_breaks_d_d(case):
    c, k, i, j, r = case
    product = c.d(k) * _elementary(c.group, c.ranks[k], i, j, r) * c.d(k + 1)
    if product.is_zero():
        assert basis_change(c, k, i, j, r, inverse=False).ranks == c.ranks
    else:
        with pytest.raises(NotAComplex) as e:
            basis_change(c, k, i, j, r, inverse=False)
        assert e.value.degree == k + 1


def test_dropping_the_inverse_on_the_klein_four_complex_is_refused():
    # d_1 E d_2 on the commutator cell is (t_1 - 1)^2 != 0
    c = MODELS["pres2x2"]
    one = RingElement(c.group, {c.group.identity: 1})
    with pytest.raises(NotAComplex) as e:
        basis_change(c, 1, 0, 1, one, inverse=False)
    assert e.value.degree == 2
    assert invariants(basis_change(c, 1, 0, 1, one)) == BASE["pres2x2"]
