"""Resolutions are built over the target group, and ring solves and kernels
have one owner: groupring.

The functions below are frozen copies of the routes that resolution_for,
classify._chain_map_to_resolution and psi_chase took before
RingMatrix.solve and RingMatrix.kernel existed: each periodic resolution
built over its own cyclic group, tensored through degree 2 * bound,
pushed into the product and relabelled; chain lifts and chase lifts
expanded, solved and mapped back by hand.  The new routes must give equal
ring matrices and bit-identical class representatives.  The old
tensor_complex is frozen too, block offsets and all, so a change to the
Koszul sign or the basis order shows here; so is the ring-solve route
that wrote a column in kernel-module coordinates.
"""

import itertools
import random

import pytest

from fourfold import complexes
from fourfold.classify import _chain_map_to_resolution
from fourfold.complexes import LambdaComplex, cross_circle, presentation_complex, tensor_complex, validate
from fourfold.errors import GroupMismatch, NotACycle, UnsupportedGroup
from fourfold.extensions import (
    _psi_context,
    _vec_in_source_coords,
    fpmodule_kernel,
    hom_vec,
    pi2_extension,
    psi_chase,
)
from fourfold.groupring import (
    RingElement,
    RingMatrix,
    char_from_signs,
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
from fourfold.manifolds import (
    LensSpace,
    cp2_complex,
    lens_complex,
    lens_times_circle,
    rp4_complex,
    s4_complex,
    torus4_complex,
)


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


def ref_vec_in_source_coords(source, ambient_cols):
    gens = source.gen_vecs
    values = gens.solve(ring_matrix_from_coordinates(source.group, ambient_cols, gens.rows))
    if values is None:
        raise NotACycle("a column is not in the kernel module")
    return hom_vec(values, source)


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
    rep = ref_vec_in_source_coords(source, vmat.column_coordinates())
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


# the models whose pi_2 extension is defined (finite group, top degree 4)
PI2_MODELS = {
    "rp4": rp4_complex,
    "s4": s4_complex,
    "cp2": cp2_complex,
    "L(5,2)": lambda: lens_complex(LensSpace(5, 2)),
    "L(7,3)": lambda: lens_complex(LensSpace(7, 3)),
    "L(9,2)": lambda: lens_complex(LensSpace(9, 2)),
}


@pytest.mark.parametrize("name", sorted(PI2_MODELS))
def test_source_coordinates_match_the_frozen_route(name):
    c = PI2_MODELS[name]()
    source = fpmodule_kernel(c.d(2))
    cols = c.d(3).column_coordinates()
    rep = _vec_in_source_coords(source, cols)
    assert rep == ref_vec_in_source_coords(source, cols)
    assert pi2_extension(c).rep == rep


def test_a_column_off_the_kernel_module_is_refused_on_both_routes():
    c = rp4_complex()
    source = fpmodule_kernel(c.d(2))
    # the first basis vector of C_2 is not a cycle: d_2 of RP^4 is nonzero on it
    off = [tuple(1 if i == 0 else 0 for i in range(c.ranks[2] * c.group.order()))]
    for route in (_vec_in_source_coords, ref_vec_in_source_coords):
        with pytest.raises(NotACycle, match="a column is not in the kernel module"):
            route(source, off)


# every model crossed with a circle, of either sign on the new generator
CIRCLE_MODELS = dict(PI2_MODELS)
CIRCLE_MODELS["t4"] = torus4_complex
CIRCLE_MODELS["L(5,2)xS1"] = lambda: lens_times_circle(LensSpace(5, 2))


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("name", sorted(CIRCLE_MODELS))
def test_cross_circle_matches_the_frozen_tensor(name, sign, monkeypatch):
    c = CIRCLE_MODELS[name]()
    new = cross_circle(c, sign)
    monkeypatch.setattr(complexes, "tensor_complex", ref_tensor_complex)
    old = cross_circle(c, sign)
    assert (new.group, new.w, new.ranks) == (old.group, old.w, old.ranks)
    assert new.boundaries == old.boundaries


def _random_element(rng, group):
    """Zero half the time, else up to three terms with coefficients in -2..2."""
    if rng.random() < 0.5:
        return ring_zero(group)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        el = tuple(rng.randrange(o) for o in group.orders)
        terms[el] = terms.get(el, 0) + rng.choice((-2, -1, 1, 2))
    return RingElement(group, terms)


def _random_matrix(rng, group, rows, cols):
    """A random matrix whose first entry, if it has one, is nonzero."""
    entries = [[_random_element(rng, group) for _ in range(cols)] for _ in range(rows)]
    if rows and cols and entries[0][0].is_zero():
        entries[0][0] = ring_one(group)
    return RingMatrix(group, rows, cols, entries)


def _random_complex(rng, group, w, ranks):
    """d_1 at random, and each later d_k the kernel of d_(k-1) times a
    random matrix, so d_(k-1) d_k = 0 by construction."""
    boundaries = [_random_matrix(rng, group, ranks[0], ranks[1])]
    for k in range(2, len(ranks)):
        kernel = boundaries[-1].kernel()
        boundaries.append(kernel * _random_matrix(rng, group, kernel.cols, ranks[k]))
    return LambdaComplex(group, w, ranks, boundaries)


@pytest.mark.parametrize("seed", range(12))
def test_tensor_complex_matches_the_frozen_tensor_at_every_top(seed):
    rng = random.Random(seed)
    g = product_group(rng.choice(((2,), (3,), (2, 2))))
    w = char_from_signs(g, tuple(rng.choice((1, -1)) if o % 2 == 0 else 1 for o in g.orders))
    # ranks up to 3 with d_1 nonzero; one factor has a zero rank in a middle
    # degree, the other a second boundary, and they swap sides with the seed
    gap = _random_complex(rng, g, w, [rng.randint(1, 3), rng.randint(1, 3), 0, rng.randint(1, 3)])
    full = _random_complex(rng, g, w, [rng.randint(1, 2) for _ in range(3)])
    a, b = (gap, full) if seed % 2 else (full, gap)
    old = ref_tensor_complex(a, b)
    for top in range(a.top_degree + b.top_degree + 1):
        new = tensor_complex(a, b, top=top)
        assert new.w == old.w
        assert new.ranks == old.ranks[: top + 1]
        assert new.boundaries == old.boundaries[:top]
