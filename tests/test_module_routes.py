"""Kernel and homology modules are presented on spun ring generators.

The functions below are frozen copies of the route that fpmodule_kernel,
fpmodule_homology and pi2_extension took before groupring.spin_generators:
every integer kernel basis vector a ring generator, and every basis
vector of the relation lattice a relation.  Running the public functions
with these copies patched in gives the old answers.  The new route must
give the same abelian invariants, module homology, Ext groups and class
verdicts from presentations that are no larger, and each of its
generator and relation lists must be irredundant in the spinning sense.

The spun module also serves as the oracle for homology_Lambda, which
reads the invariants off the Smith forms of the expanded boundaries and
shares no code with the spinning route.
"""

import itertools

import pytest

from fourfold import extensions
from fourfold.complexes import homology_Lambda, presentation_complex, twisted_dual
from fourfold.errors import NotACycle
from fourfold.extensions import FPModule, hom_vec, pi2_extension, psi_chase
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    product_group,
    ring_matrix_from_coordinates,
    ring_one,
    spin_generators,
    trivial_char,
)
from fourfold.homology import module_homology, resolution_for
from fourfold.intmat import AbelianInvariants, IntMatrix, kernel_basis, preimage_kernel, solve_columns
from fourfold.manifolds import LensSpace, cp2_complex, lens_complex, rp4_complex, s4_complex


# ---- frozen reference: the route as it was ----------------------------------


def ref_fpmodule_kernel(d):
    k = kernel_basis(d.expand())
    return ref_module_from_gens(d.group, d.cols, k, None)


def ref_fpmodule_homology(d_out, d_in):
    k = kernel_basis(d_out.expand())
    return ref_module_from_gens(d_out.group, d_out.cols, k, d_in.expand())


def ref_module_from_gens(group, ambient_rank, gen_vecs, modulo):
    lift = ring_matrix_from_coordinates(group, gen_vecs.columns(), ambient_rank)
    if modulo is None:
        relations = lift.kernel()
    else:
        rel_int = preimage_kernel(lift.expand(), modulo)
        relations = ring_matrix_from_coordinates(group, rel_int.columns(), gen_vecs.cols)
    return FPModule(group, relations, gen_vecs=gen_vecs)


def ref_vec_in_source_coords(source, ambient_cols):
    xs = solve_columns(source.gen_vecs, ambient_cols)
    if None in xs:
        raise NotACycle("column %d is not in the kernel sublattice" % xs.index(None))
    values = IntMatrix.from_columns(xs, source.num_gens)
    return hom_vec(RingMatrix.from_int_matrix(source.group, values), source)


@pytest.fixture
def old_route(monkeypatch):
    """Switch the public module builders to the frozen route; chase
    contexts built meanwhile go to a cache of their own."""

    def switch():
        monkeypatch.setattr(extensions, "fpmodule_homology", ref_fpmodule_homology)
        monkeypatch.setattr(extensions, "fpmodule_kernel", ref_fpmodule_kernel)
        monkeypatch.setattr(extensions, "_vec_in_source_coords", ref_vec_in_source_coords)
        monkeypatch.setattr(extensions, "_psi_contexts", {})

    return switch


# ---- cases ------------------------------------------------------------------


PRESENTED = [(n,) for n in range(2, 10)] + [(2, 2), (2, 3), (3, 3), (2, 4)]
MODELS = {
    "rp4": rp4_complex,
    "s4": s4_complex,
    "cp2": cp2_complex,
    "L(5,2)": lambda: lens_complex(LensSpace(5, 2)),
    "L(7,3)": lambda: lens_complex(LensSpace(7, 3)),
    "L(9,2)": lambda: lens_complex(LensSpace(9, 2)),
}
CASES = [("x".join(map(str, o)), lambda o=o: presentation_complex(product_group(o))) for o in PRESENTED]
CASES += list(MODELS.items())


def _characters(c):
    """The complex's own character, the trivial one, and the one that is
    -1 on every generator of even order."""
    g = c.group
    signs = tuple(-1 if o % 2 == 0 else 1 for o in g.orders)
    return {c.w, trivial_char(g), char_from_signs(g, signs)}


def homology_module(c, i):
    """H_i(C; Z[pi]) as a module, with zero maps past the two ends."""
    d_out = c.d(i) if i >= 1 else RingMatrix.zeros(c.group, 0, c.ranks[i])
    d_in = c.d(i + 1) if i < c.top_degree else RingMatrix.zeros(c.group, c.ranks[i], 0)
    return extensions.fpmodule_homology(d_out, d_in)


def _modules(c):
    """The homology module in every degree and, where it is not the top
    homology, the kernel of d_2."""
    out = [homology_module(c, i) for i in range(c.top_degree + 1)]
    if c.top_degree > 2:
        out.append(extensions.fpmodule_kernel(c.d(2)))
    return out


def _resolution_bound(group):
    """The frozen route presents a module over a group of order 8 or 9
    on up to 17 generators and 136 relations, each an orbit; its degree-2
    homology takes seconds, so those groups stop at degree 1."""
    return 3 if group.order() <= 6 else 2


def assert_spun(group, rm):
    """No column of rm lies in the ring span of the columns before it."""
    cols = rm.column_coordinates()
    for j in range(1, len(cols)):
        span = ring_matrix_from_coordinates(group, cols[:j], rm.rows).expand()
        assert solve_columns(span, [cols[j]]) == [None], j


@pytest.mark.parametrize("name,build", CASES, ids=[n for n, _ in CASES])
def test_modules_match_the_frozen_route(name, build, old_route):
    c = build()
    new = _modules(c)
    old_route()
    old = _modules(c)
    res = resolution_for(c.group, _resolution_bound(c.group))
    for m_new, m_old in zip(new, old):
        assert m_new.abelian_invariants() == m_old.abelian_invariants()
        assert m_new.num_gens <= m_old.num_gens
        assert m_new.relations.cols <= m_old.relations.cols
        assert isinstance(m_new.gen_vecs, RingMatrix)
        assert_spun(c.group, m_new.gen_vecs)
        assert_spun(c.group, m_new.relations)
        for w in _characters(c):
            for degree in range(res.top_degree):
                assert module_homology(res, w, m_new, degree) == module_homology(res, w, m_old, degree), (
                    w.signs,
                    degree,
                )


@pytest.mark.parametrize("name,build", CASES, ids=[n for n, _ in CASES])
def test_group_ring_homology_matches_the_module_invariants(name, build):
    c = build()
    for x in (c, twisted_dual(c)):
        for i in range(x.top_degree + 1):
            assert homology_Lambda(x, i) == homology_module(x, i).abelian_invariants(), i


@pytest.mark.parametrize("name", sorted(MODELS))
def test_pi2_extension_matches_the_frozen_route(name, old_route):
    c = MODELS[name]()
    new = pi2_extension(c)
    old_route()
    old = pi2_extension(c)
    assert new.context.ext_invariants() == old.context.ext_invariants()
    assert new.is_trivial() == old.is_trivial()
    for k in (2, 3):
        assert new.scale(k).is_trivial() == old.scale(k).is_trivial()


def _klein_four_chases():
    """The acceptance chases: every 0/1 combination of a basis of the
    twisted 4-cycles of the Klein four-group's resolution."""
    g = product_group((2, 2))
    res = resolution_for(g)
    w = trivial_char(g)
    basis = kernel_basis(res.d(4).augment(w))
    cols = [basis.column(j) for j in range(basis.cols)]
    chains = []
    for bits in itertools.product((0, 1), repeat=basis.cols):
        chains.append([sum(b * col[i] for b, col in zip(bits, cols)) for i in range(basis.rows)])
    return res, presentation_complex(g), w, chains


def _verdicts(res, c2, w, chains):
    classes = [psi_chase(res, c2, w, z) for z in chains]
    same = [[a.same_class(b) for b in classes[i + 1 :]] for i, a in enumerate(classes)]
    z3 = cyclic_group(3)
    cyclic = psi_chase(resolution_for(z3), presentation_complex(z3), trivial_char(z3), [0])
    return [cls.is_trivial() for cls in classes], same, cyclic.is_trivial()


def test_chase_verdicts_match_the_frozen_route(old_route):
    case = _klein_four_chases()
    new = _verdicts(*case)
    old_route()
    old = _verdicts(*case)
    assert new == old
    # four distinct classes among the chased cycles, as in the acceptance test
    trivial, same, cyclic = new
    assert cyclic
    distinct = [i for i in range(len(trivial)) if not any(same[j][i - j - 1] for j in range(i))]
    assert len(distinct) == 4


def test_spinning_a_free_module_keeps_one_generator_per_summand():
    g = product_group((2, 3))
    basis = IntMatrix.identity(3 * g.order())
    gens = spin_generators(g, 3, basis)
    assert gens == RingMatrix.identity(g, 3)


def test_spinning_accepts_a_basis_that_is_not_saturated():
    # 2 Z[pi] inside Z[pi], given by a Z-basis: one generator, 2
    g = cyclic_group(4)
    basis = IntMatrix(4, 4, [[2 if i == j else 0 for j in range(4)] for i in range(4)])
    gens = spin_generators(g, 1, basis)
    assert gens == RingMatrix(g, 1, 1, [[2 * ring_one(g)]])
    assert spin_generators(g, 1, IntMatrix(4, 0, [[] for _ in range(4)])).cols == 0


def test_pi2_of_an_order_25_group_is_presented_on_four_generators():
    # the frozen route runs out of a 3 GB address space here
    c = presentation_complex(product_group((5, 5)))
    module = homology_module(c, 2)
    assert homology_Lambda(c, 2) == module.abelian_invariants() == AbelianInvariants(49, ())
    assert (module.num_gens, module.relations.cols) == (4, 5)
