"""Resolutions are built over the target group, and ring solves and kernels
have one owner: groupring.

The functions below are frozen copies of the routes that resolution_for,
classify._chain_map_to_resolution and psi_chase took before
RingMatrix.solve and RingMatrix.kernel existed: each periodic resolution
built over its own cyclic group, tensored through degree 2 * bound,
pushed into the product and relabelled; chain lifts and chase lifts
expanded, solved and mapped back by hand.  The new routes must give equal
ring matrices and bit-identical class representatives.  The old
tensor_complex is frozen too, so a change to the Koszul sign shows here.
"""

import itertools
import random

import pytest

from fourfold.classify import _chain_map_to_resolution
from fourfold.complexes import LambdaComplex, presentation_complex, validate
from fourfold.errors import GroupMismatch, NotACycle, UnsupportedGroup
from fourfold.extensions import _psi_context, _vec_in_source_coords, psi_chase
from fourfold.groupring import (
    RingMatrix,
    cyclic_group,
    deexpand_vector,
    norm_element,
    product_group,
    ring_generator,
    ring_matrix_from_columns,
    ring_matrix_from_coordinates,
    ring_one,
    ring_zero,
    trivial_char,
    trivial_group,
)
from fourfold.homology import resolution_for
from fourfold.intmat import kernel_basis, solve_columns
from fourfold.manifolds import LensSpace, cp2_complex, lens_complex, rp4_complex, s4_complex


# ---- frozen reference: the routes as they were ------------------------------


def ref_tensor_complex(a, b):
    if a.group != b.group:
        raise GroupMismatch("tensor factors live over different groups")
    if a.w != b.w:
        raise GroupMismatch("tensor factors carry different characters")
    validate(a)
    validate(b)
    g = a.group
    na, nb = a.top_degree, b.top_degree
    n = na + nb

    def blocks(deg):
        out = []
        for i in range(deg + 1):
            j = deg - i
            if i <= na and j <= nb and a.ranks[i] and b.ranks[j]:
                out.append((i, j))
        return out

    def block_rank(i, j):
        return a.ranks[i] * b.ranks[j]

    ranks = []
    offsets = []
    for deg in range(n + 1):
        off = {}
        total = 0
        for (i, j) in blocks(deg):
            off[(i, j)] = total
            total += block_rank(i, j)
        ranks.append(total)
        offsets.append(off)

    zero = ring_zero(g)
    boundaries = []
    for deg in range(1, n + 1):
        rows = ranks[deg - 1]
        cols = ranks[deg]
        entries = [[zero] * cols for _ in range(rows)]
        for (i, j) in blocks(deg):
            src_off = offsets[deg][(i, j)]
            rb = b.ranks[j]
            # dA (x) id into block (i-1, j)
            if i >= 1 and (i - 1, j) in offsets[deg - 1]:
                dst_off = offsets[deg - 1][(i - 1, j)]
                da = a.d(i)
                for ai in range(da.rows):
                    for aj in range(da.cols):
                        e = da.entries[ai][aj]
                        if e.is_zero():
                            continue
                        for bj in range(rb):
                            entries[dst_off + ai * rb + bj][src_off + aj * rb + bj] = e
            # (-1)^i id (x) dB into block (i, j-1)
            if j >= 1 and (i, j - 1) in offsets[deg - 1]:
                dst_off = offsets[deg - 1][(i, j - 1)]
                db = b.d(j)
                sgn = -1 if i % 2 else 1
                rbm = b.ranks[j - 1]
                for bi in range(db.rows):
                    for bj in range(db.cols):
                        e = db.entries[bi][bj]
                        if e.is_zero():
                            continue
                        if sgn < 0:
                            e = -e
                        for ai in range(a.ranks[i]):
                            entries[dst_off + ai * rbm + bi][src_off + ai * rb + bj] = e
        boundaries.append(RingMatrix(g, rows, cols, entries))
    return LambdaComplex(g, a.w, tuple(ranks), tuple(boundaries))


def ref_periodic_resolution(p, bound):
    g = cyclic_group(p)
    t = ring_generator(g, 0)
    one = ring_one(g)
    tm1 = RingMatrix(g, 1, 1, [[t - one]])
    nm = RingMatrix(g, 1, 1, [[norm_element(g)]])
    boundaries = tuple(tm1 if i % 2 == 1 else nm for i in range(1, bound + 1))
    return LambdaComplex(g, trivial_char(g), (1,) * (bound + 1), boundaries)


def ref_trivial_resolution(bound):
    g = trivial_group()
    zero_first = RingMatrix.zeros(g, 1, 0)
    zeros = RingMatrix.zeros(g, 0, 0)
    boundaries = (zero_first,) + (zeros,) * (bound - 1)
    return LambdaComplex(g, trivial_char(g), (1,) + (0,) * bound, boundaries)


def ref_push_complex(c, group, embed, w, bound):
    ranks = c.ranks[: bound + 1]
    bs = tuple(
        b.map_entries(lambda e: e.map_group(group, embed), group) for b in c.boundaries[:bound]
    )
    return LambdaComplex(group, w, ranks, bs)


def ref_tensor_resolution(r1, r2):
    bound = min(r1.top_degree, r2.top_degree)
    g = product_group(r1.group.orders + r2.group.orders)
    k1 = len(r1.group.orders)
    k2 = len(r2.group.orders)

    def embed_left(el):
        return el + (0,) * k2

    def embed_right(el):
        return (0,) * k1 + el

    w = trivial_char(g)
    left = ref_push_complex(r1, g, embed_left, w, bound)
    right = ref_push_complex(r2, g, embed_right, w, bound)
    c = ref_tensor_complex(left, right)
    return LambdaComplex(g, w, c.ranks[: bound + 1], c.boundaries[:bound])


def ref_relabel_resolution(res, group):
    src = res.group
    keep = [i for i, o in enumerate(group.orders) if o > 1]
    if tuple(group.orders[i] for i in keep) != src.orders:
        raise UnsupportedGroup("cannot align %s with %s" % (src, group))

    def embed(el):
        out = [0] * group.ngens
        for j, i in enumerate(keep):
            out[i] = el[j]
        return tuple(out)

    w = trivial_char(group)
    return ref_push_complex(res, group, embed, w, res.top_degree)


def ref_resolution_for(group, bound):
    orders = [o for o in group.orders if o > 1]
    if not orders:
        res = ref_trivial_resolution(bound)
    else:
        res = ref_periodic_resolution(orders[0], bound)
        for o in orders[1:]:
            res = ref_tensor_resolution(res, ref_periodic_resolution(o, bound))
    if res.group != group:
        res = ref_relabel_resolution(res, group)
    return res


def ref_chain_map_to_resolution(c, res):
    group = c.group
    cmap = {0: RingMatrix.identity(group, 1)}
    top = min(c.top_degree, res.top_degree - 1)
    for i in range(1, top + 1):
        targets = (cmap[i - 1] * c.d(i)).column_coordinates()
        sols = solve_columns(res.d(i).expand(), targets)
        assert None not in sols
        cmap[i] = ring_matrix_from_coordinates(group, sols, res.ranks[i])
    return cmap


def ref_apply_vertical(delta, vec, block_cols):
    rows = delta.rows
    cols = delta.cols
    z = ring_zero(delta.group)
    out = [z] * (rows * block_cols)
    for ip in range(rows):
        for i in range(cols):
            e = delta.entries[ip][i]
            if e.is_zero():
                continue
            for cidx in range(block_cols):
                x = vec[i * block_cols + cidx]
                if x.terms:
                    out[ip * block_cols + cidx] = out[ip * block_cols + cidx] + e * x
    return out


def ref_solve_blocks(cmat, rhs, blocks, rng):
    group = cmat.group
    r = cmat.rows
    expanded = cmat.expand()
    targets = ring_matrix_from_columns(group, [rhs[b * r : (b + 1) * r] for b in range(blocks)], r)
    sols = solve_columns(expanded, targets.column_coordinates())
    if None in sols:
        raise NotACycle("no lift exists; input rows are not exact")
    kb = kernel_basis(expanded) if rng is not None else None
    out = []
    for x in sols:
        x = list(x)
        if kb is not None:
            for j in range(kb.cols):
                coeff = rng.randint(-2, 2)
                if coeff:
                    col = kb.column(j)
                    for i in range(len(x)):
                        x[i] += coeff * col[i]
        out.extend(deexpand_vector(group, x, cmat.cols))
    return out


def ref_psi_chase(resolution, c2, w, z, rng=None):
    group = resolution.group
    d = {i: resolution.d(i).twist(w) for i in (1, 2, 3, 4)}
    a = {i: resolution.ranks[i] for i in range(5)}
    aug4 = d[4].augment()
    if any(v != 0 for v in aug4.mul_vec(z)):
        raise NotACycle("input chain is not a cycle for the twisted boundary")
    c_d1 = c2.d(1)
    c_d2 = c2.d(2)
    ctx = _psi_context(resolution, c2, w)
    source = ctx.source
    one = ring_one(group)
    f40 = [one * int(zi) for zi in z]
    u3 = ref_apply_vertical(d[4], f40, 1)
    f31 = ref_solve_blocks(c_d1, u3, a[3], rng)
    u2 = ref_apply_vertical(d[3], f31, c_d1.cols)
    f22 = ref_solve_blocks(c_d2, u2, a[2], rng)
    v = ref_apply_vertical(d[2], f22, c_d2.cols)
    b2 = c_d2.cols
    cols = []
    for i in range(a[1]):
        cols.append(v[i * b2 : (i + 1) * b2])
    vmat = ring_matrix_from_columns(group, cols, b2)
    for j in range(a[1]):
        img = [sum((c_d2.entries[r][k] * vmat.entries[k][j] for k in range(b2)), ring_zero(group)) for r in range(c_d2.rows)]
        if any(not e.is_zero() for e in img):
            raise NotACycle("chase output escaped ker d_2")
    rep = _vec_in_source_coords(source, vmat.column_coordinates())
    assert ctx.check_cocycle(rep)
    return ctx.make_class(rep)


# ---- cases ------------------------------------------------------------------


# the groups of the resolution tests, a two- and a three-factor product,
# and descriptors whose only factors have order 1
RESOLUTION_ORDERS = (
    [(n,) for n in (2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 24, 32)]
    + [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (2, 3, 2), (2, 1, 3)]
    + [(2, 3), (1,), (1, 1), (1, 4), (2, 2, 2)]
)


@pytest.mark.parametrize("bound", (1, 5, 6))
@pytest.mark.parametrize("orders", RESOLUTION_ORDERS, ids=lambda o: "x".join(map(str, o)))
def test_resolution_matches_the_frozen_route(orders, bound):
    g = product_group(orders)
    new = resolution_for(g, bound)
    old = ref_resolution_for(g, bound)
    assert new.group == old.group == g
    assert new.w == old.w
    assert new.ranks == old.ranks
    assert new.boundaries == old.boundaries


def test_periodic_resolution_is_the_one_factor_case():
    for p in (2, 5):
        assert resolution_for(cyclic_group(p), 4).boundaries == ref_periodic_resolution(p, 4).boundaries


@pytest.mark.parametrize(
    "build",
    [rp4_complex, s4_complex, cp2_complex, lambda: lens_complex(LensSpace(5, 2)), lambda: lens_complex(LensSpace(7, 3))],
    ids=["rp4", "s4", "cp2", "L(5,2)", "L(7,3)"],
)
def test_chain_map_matches_the_frozen_route(build):
    c = build()
    res = resolution_for(c.group)
    new = _chain_map_to_resolution(c, res)
    old = ref_chain_map_to_resolution(c, res)
    assert sorted(new) == sorted(old)
    for i in old:
        assert new[i] == old[i], i


def _chases():
    """(resolution, 2-complex, character, cycle) for every compared chase."""
    rp4 = rp4_complex()
    out = [(resolution_for(rp4.group), rp4, rp4.w, [m]) for m in range(-6, 7)]
    g = product_group((2, 2))
    res = resolution_for(g)
    w = trivial_char(g)
    basis = kernel_basis(res.d(4).augment(w))
    columns = [basis.column(j) for j in range(basis.cols)]
    for bits in itertools.product((0, 1), repeat=basis.cols):
        z = [sum(b * col[i] for b, col in zip(bits, columns)) for i in range(basis.rows)]
        out.append((res, presentation_complex(g), w, z))
    z3 = cyclic_group(3)
    out.append((resolution_for(z3), presentation_complex(z3), trivial_char(z3), [0]))
    return out


def test_psi_chase_matches_the_frozen_route():
    for res, c2, w, z in _chases():
        assert psi_chase(res, c2, w, z).rep == ref_psi_chase(res, c2, w, z).rep, z
        for seed in (11, 12, 13):
            shifted = psi_chase(res, c2, w, z, rng=random.Random(seed))
            frozen = ref_psi_chase(res, c2, w, z, rng=random.Random(seed))
            assert shifted.rep == frozen.rep, (z, seed)
            assert shifted.same_class(psi_chase(res, c2, w, z)), (z, seed)
    z3 = cyclic_group(3)
    with pytest.raises(NotACycle):
        psi_chase(resolution_for(z3), presentation_complex(z3), trivial_char(z3), [1])
