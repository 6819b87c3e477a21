"""Modules over group rings, Ext groups, extension classes, and the
second-homotopy chasing machinery."""

import itertools
import math
import random

import pytest

from fourfold.extensions import (
    EmFamily,
    baer_sum,
    em_closed_form,
    em_torsion,
    ext1,
    ext_vanishing_check,
    fpmodule_cokernel,
    fpmodule_free,
    fpmodule_kernel,
    hom_lambda,
    pi2_extension,
    pi2_sequence_check,
    psi_chase,
    recover_m,
)
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    norm_element,
    product_group,
    regular_representation,
    ring_generator,
    ring_one,
    ring_zero,
    trivial_char,
)
from fourfold.homology import bar_homology_oracle, resolution_for
from fourfold.intmat import AbelianInvariants, IntMatrix, cokernel_invariants, vstack
from fourfold.manifolds import cp2_complex, rp4_complex, s4_complex, torus4_complex
from fourfold.complexes import LambdaComplex, presentation_complex
from fourfold.errors import (
    ContextMismatch,
    DimensionMismatch,
    GroupMismatch,
    HypothesisViolated,
    NotACycle,
)

Z = AbelianInvariants(1, ())
ZERO = AbelianInvariants(0, ())


def trivial_module(group):
    one = ring_one(group)
    gens = [ring_generator(group, i) for i in range(group.ngens)]
    return fpmodule_cokernel(RingMatrix(group, 1, group.ngens, [[g - one for g in gens]]))


def mod_p_module(group, p):
    one = ring_one(group)
    cols = [g - one for g in (ring_generator(group, i) for i in range(group.ngens))]
    cols.append(p * one)
    return fpmodule_cokernel(RingMatrix(group, 1, len(cols), [cols]))


def test_fpmodule_basics():
    g = cyclic_group(3)
    free = fpmodule_free(g, 2)
    assert free.abelian_invariants() == AbelianInvariants(6, ())
    assert trivial_module(g).abelian_invariants() == Z
    assert mod_p_module(g, 3).abelian_invariants() == AbelianInvariants(0, (3,))


def test_action_matrix_multiplicative_on_free_module():
    # multiplication by e on an s-generator module is e * I_s, expanded
    rng = random.Random(3)
    g = product_group((2, 2))
    els = g.elements()
    from fourfold.groupring import RingElement

    def action(e, s):
        return RingMatrix(g, 1, 1, [[e]]).kron_identity(s).expand()

    for _ in range(30):
        a = RingElement(g, {rng.choice(els): rng.randint(-3, 3)})
        b = RingElement(g, {rng.choice(els): rng.randint(-3, 3)})
        for s in (1, 2, 3):
            assert action(a * b, s) == action(a, s) * action(b, s)
        assert action(a, 1) == regular_representation(a)


def test_hom_lambda_free_source():
    g = cyclic_group(4)
    free = fpmodule_free(g, 1)
    triv = trivial_module(g)
    # Hom(Lambda, M) = M as abelian groups
    assert hom_lambda(free, triv).invariants == Z
    assert hom_lambda(free, free).invariants == AbelianInvariants(4, ())
    # Hom(Z, Z) = Z, Hom(Z, Lambda) = fixed points = norm multiples = Z
    assert hom_lambda(triv, triv).invariants == Z
    assert hom_lambda(triv, free).invariants == Z


def test_hom_group_contains_its_own_generators():
    # m = R^2 / (0, t - 1) over Z/3, n = R: (1, 0) is a homomorphism m -> n,
    # (0, 1) is not, since t - 1 does not die in R
    g = cyclic_group(3)
    one = ring_one(g)
    zero = one * 0
    t = ring_generator(g, 0)
    m = fpmodule_cokernel(RingMatrix(g, 2, 1, [[zero], [t - one]]))
    n = fpmodule_free(g, 1)
    hom = hom_lambda(m, n)
    assert hom.contains(RingMatrix(g, 1, 2, [[one, zero]]), n)
    assert not hom.contains(RingMatrix(g, 1, 2, [[zero, one]]), n)
    assert hom.contains(RingMatrix(g, 1, 2, [[zero, norm_element(g)]]), n)
    assert hom.generators
    assert all(hom.contains(f, n) for f in hom.generators)


def test_ext1_frozen_values():
    for p in (2, 3, 5):
        g = cyclic_group(p)
        triv = trivial_module(g)
        free = fpmodule_free(g, 1)
        assert ext1(triv, triv) == ZERO
        assert ext1(triv, free) == ZERO
        assert ext1(triv, mod_p_module(g, p)) == AbelianInvariants(0, (p,))


def test_ext1_of_augmentation_ideal_dual():
    # the check used on 2-complex input: vanishing against a free target
    for p in (2, 3, 5, 7):
        assert ext_vanishing_check(presentation_complex(cyclic_group(p)))
    assert ext_vanishing_check(presentation_complex(product_group((2, 2))))
    assert ext_vanishing_check(presentation_complex(product_group((2, 2)), wedge_cells=2))


def test_pi2_extension_on_sphere_and_projective_space():
    s4 = s4_complex()
    cls = pi2_extension(s4)
    assert cls.is_trivial()

    rp4 = rp4_complex()
    cls = pi2_extension(rp4)
    assert cls.context.ext_invariants() == AbelianInvariants(0, (2,))
    assert not cls.is_trivial()
    # twice the generator of Z/2 dies
    assert baer_sum(cls, cls).is_trivial()
    assert cls.scale(2).is_trivial()
    assert cls.scale(3).same_class(cls)
    # a coboundary shift does not move the class
    shifted = cls.shift_by_coboundary([1, -2] + [0] * (cls.context.cochains.boundaries.cols - 2))
    assert shifted.same_class(cls)


def test_shift_by_coboundary_takes_one_coefficient_per_column():
    cls = pi2_extension(rp4_complex())
    cols = cls.context.cochains.boundaries.cols
    assert cols == 4
    # short, overlong with zero padding, overlong with a coefficient past the last column
    for coeffs in ([1, -2], [1, -2] + [0] * (cols - 1), [0] * cols + [1]):
        with pytest.raises(DimensionMismatch):
            cls.shift_by_coboundary(coeffs)


def test_pi2_sequence_check_builtin_complexes():
    for c in (s4_complex(), cp2_complex(), rp4_complex()):
        assert pi2_sequence_check(c) is True


def test_ext_classes_from_different_contexts_do_not_mix():
    a = pi2_extension(rp4_complex())
    b = pi2_extension(s4_complex())
    with pytest.raises(ContextMismatch):
        a.same_class(b)
    with pytest.raises(ContextMismatch):
        baer_sum(a, b)


def test_psi_chase_projective_space():
    rp4 = rp4_complex()
    g = rp4.group
    w = rp4.w
    res = resolution_for(g)
    # twisted augmentation of d_4 vanishes, so every integer chain is a cycle
    one = psi_chase(res, rp4, w, [1])
    two = psi_chase(res, rp4, w, [2])
    zero = psi_chase(res, rp4, w, [0])
    assert not one.is_trivial()
    assert two.is_trivial()
    assert zero.is_trivial()
    assert not one.same_class(zero)
    # chasing is additive: [1] + [1] lands where [2] does
    assert baer_sum(one, one).same_class(two)


def test_psi_chase_lift_choices_do_not_matter():
    rp4 = rp4_complex()
    res = resolution_for(rp4.group)
    w = rp4.w
    base = psi_chase(res, rp4, w, [1])
    for seed in (11, 12, 13):
        other = psi_chase(res, rp4, w, [1], rng=random.Random(seed))
        assert other.same_class(base)


def test_psi_chase_rejects_non_cycles():
    g = cyclic_group(3)
    res = resolution_for(g)
    w = trivial_char(g)
    c2 = presentation_complex(g)
    # untwisted augmented d_4 is multiplication by 3: only 0 is a cycle
    assert psi_chase(res, c2, w, [0]).is_trivial()
    with pytest.raises(NotACycle):
        psi_chase(res, c2, w, [1])


def _refuse_ring_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("ring work started")

    for name in ("twist", "solve", "expand"):
        monkeypatch.setattr(RingMatrix, name, refuse)


def test_psi_chase_refuses_a_character_of_another_group(monkeypatch):
    g = product_group((2, 2))
    res = resolution_for(g)
    c2 = presentation_complex(g)
    z = [0] * res.ranks[4]
    _refuse_ring_work(monkeypatch)
    with pytest.raises(GroupMismatch):
        psi_chase(res, c2, trivial_char(cyclic_group(4)), z)


def test_psi_chase_refuses_a_2_complex_over_another_group(monkeypatch):
    g = product_group((2, 2))
    res = resolution_for(g)
    w = trivial_char(g)
    h = cyclic_group(4)
    t = ring_generator(h, 0)
    one = ring_one(h)
    d1 = RingMatrix(h, 1, 1, [[t * t - one]])
    d2 = RingMatrix(h, 1, 1, [[t * t + one]])
    c2 = LambdaComplex(h, trivial_char(h), (1, 1, 1), (d1, d2))
    # a Klein-four cycle whose first lift, read in Z/4 coordinates, has no
    # solution: the mismatch must not surface as NotACycle
    z = [0, 1, 0, 0, 0]
    assert not any(res.d(4).augment(w).mul_vec(z))
    _refuse_ring_work(monkeypatch)
    with pytest.raises(GroupMismatch):
        psi_chase(res, c2, w, z)


def test_psi_chase_klein_four_sees_distinct_classes():
    g = product_group((2, 2))
    res = resolution_for(g)
    w = trivial_char(g)
    c2 = presentation_complex(g)
    from fourfold.intmat import kernel_basis

    k = kernel_basis(res.d(4).augment(w))
    assert k.cols >= 2
    a = psi_chase(res, c2, w, list(k.column(0)))
    b = psi_chase(res, c2, w, list(k.column(1)))
    assert not a.same_class(b)


def test_coboundary_lattice_is_reduced_once_per_context(monkeypatch):
    from fourfold import extensions, intmat
    from fourfold.intmat import kernel_basis

    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    for module in (intmat, extensions):
        monkeypatch.setattr(module, "smith_normal_form", counting, raising=False)
    monkeypatch.setattr(extensions, "_psi_contexts", {})
    g = product_group((2, 2))
    res = resolution_for(g)
    w = trivial_char(g)
    k = kernel_basis(res.d(4).augment(w))
    assert k.cols == 2
    # the four 0/1 combinations of the two basis cycles: four classes
    chains = [[x * a + y * b for a, b in zip(k.column(0), k.column(1))] for x in (0, 1) for y in (0, 1)]
    classes = [psi_chase(res, presentation_complex(g), w, z) for z in chains]
    ctx = classes[0].context
    pairs = [(a, b) for a in classes for b in classes]
    assert [a.same_class(b) for a, b in pairs] == [a is b for a, b in pairs]
    assert [a.is_trivial() for a in classes] == [True, False, False, False]
    assert len(pairs) == 16
    assert sum(a is ctx.cochains.boundaries for a in reduced) == 1
    # every chase checks its cocycle against the one ambiguity lattice
    amb = ctx.cochains.cycle_data[1]
    assert sum(a is amb for a in reduced) == 1


def _counting_reductions(monkeypatch):
    """The list of every matrix intmat reduces from now on."""
    from fourfold import intmat

    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    return reduced


def test_chases_against_one_2_complex_reduce_its_boundaries_once(monkeypatch):
    from fourfold import extensions
    from fourfold.intmat import kernel_basis

    monkeypatch.setattr(extensions, "_psi_contexts", {})
    g = product_group((2, 2))
    res = resolution_for(g)
    w = trivial_char(g)
    k = kernel_basis(res.d(4).augment(w))
    chains = [[x * a + y * b for a, b in zip(k.column(0), k.column(1))] for x in (0, 1) for y in (0, 1)]
    c2 = presentation_complex(g)
    reduced = _counting_reductions(monkeypatch)
    for z in chains:
        psi_chase(res, c2, w, z)
    # 4 and 5 reductions when every lift expanded and reduced again
    assert sum(a == c2.d(1).expand() for a in reduced) == 1
    assert sum(a == c2.d(2).expand() for a in reduced) == 1


def test_hom_group_contains_reuses_the_reduced_lift_lattice(monkeypatch):
    g = product_group((2, 2))
    m = fpmodule_kernel(presentation_complex(g).d(2))
    hom = hom_lambda(m, m)
    reduced = _counting_reductions(monkeypatch)
    assert len(hom.generators) == 49
    assert all(hom.contains(f, m) for f in hom.generators)
    assert reduced == []


def test_pi2_extension_answers_the_same_with_warm_memos():
    for c in (rp4_complex(), cp2_complex(), s4_complex()):
        cold, warm = pi2_extension(c), pi2_extension(c)
        assert cold.context is not warm.context
        assert cold.rep == warm.rep
        assert cold.context.ext_invariants() == warm.context.ext_invariants()
        assert cold.is_trivial() == warm.is_trivial()
        assert cold.scale(2).is_trivial() == warm.scale(2).is_trivial()


def test_psi_context_is_keyed_on_the_resolution_boundaries():
    from fourfold.complexes import LambdaComplex
    from fourfold.extensions import _psi_context

    g = cyclic_group(2)
    w = trivial_char(g)
    c2 = presentation_complex(g)
    t = ring_generator(g, 0)
    one = ring_one(g)
    nm = RingMatrix(g, 1, 1, [[norm_element(g)]])

    def resolution(d1_entry):
        d1 = RingMatrix(g, 1, 1, [[d1_entry]])
        return LambdaComplex(g, w, (1,) * 5, (d1, nm, d1, nm))

    plus, minus = resolution(t - one), resolution(one - t)
    ctx_plus, ctx_minus = _psi_context(plus, c2, w), _psi_context(minus, c2, w)
    assert ctx_plus is not ctx_minus
    for res, ctx in ((plus, ctx_plus), (minus, ctx_minus)):
        assert ctx.p2 == res.d(1).twist(w).transpose_involute()
        # an equal rebuild, alive at the same time, shares the context
        assert _psi_context(resolution(res.d(1).entries[0][0]), c2, w) is ctx


def test_em_family_shape():
    m = IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]])
    fam = EmFamily.from_matrix(m)
    assert fam.a_free == 0
    assert fam.deltas == (2, 6)
    assert fam.b == 1
    zero = IntMatrix.zeros(2, 3)
    fam = EmFamily.from_matrix(zero)
    assert fam == EmFamily(3, (), 2)


def test_em_closed_form_symmetry_and_values():
    fam = EmFamily(2, (1, 4), 1)
    for m in range(-6, 7):
        assert em_closed_form(fam, m) == em_closed_form(fam, -m)
    assert em_closed_form(fam, 0) == AbelianInvariants(5, (4,))
    assert em_closed_form(fam, 6) == AbelianInvariants.from_diag(3, [6, 6, 1, 2])


def ref_em_torsion(d3_aug, m):
    """em_torsion as it was before it read D's kept Smith form: a fresh
    reduction of the explicit presentation [D; m I] for every m.  Frozen
    here as the route that shares no Smith form with em_closed_form."""
    cols = d3_aug.cols
    mid = IntMatrix(cols, cols, [[m if i == j else 0 for j in range(cols)] for i in range(cols)])
    return cokernel_invariants(vstack(d3_aug, mid))


def test_em_torsion_random_sweep():
    # the frozen presentation route shares no Smith form with the closed
    # form; the sweep drives both through varied shapes
    rng = random.Random(2024)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        d = IntMatrix(rows, cols, [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        m = rng.randint(-12, 12)
        inv = em_torsion(d, m)
        assert inv == em_closed_form(EmFamily.from_matrix(d), m)
        assert inv == ref_em_torsion(d, m)


def test_every_twist_of_one_matrix_reduces_it_once(monkeypatch):
    a = IntMatrix.from_rows([[2, 4, 0], [6, 8, 0], [0, 0, 0], [1, 3, 5]])
    expected = [ref_em_torsion(a, m) for m in range(-8, 9)]
    reduced = _counting_reductions(monkeypatch)
    assert [em_torsion(a, m) for m in range(-8, 9)] == expected
    # one reduction of A itself, where the presentation route took 17
    assert len(reduced) == 1 and reduced[0] is a


def test_recover_m_round_trip():
    rng = random.Random(7)
    trials = 0
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(2, 5)
        d = IntMatrix(rows, cols, [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        fam = EmFamily.from_matrix(d)
        if fam.a_free < 1:
            continue
        trials += 1
        # the zero and unit twists are indistinguishable exactly when all
        # elementary divisors of the family are units
        ambiguous = all(x == 1 for x in fam.deltas)
        for m in range(-5, 6):
            assert em_torsion(d, m) == ref_em_torsion(d, m)
            got = recover_m(em_torsion(d, m), fam)
            assert abs(m) in got
            if abs(m) >= 2:
                assert got == {abs(m)}
            elif ambiguous:
                assert got == {0, 1}
            else:
                assert got == {abs(m)}
    assert trials > 50


def test_recover_m_reads_torsion_only_because_a_free_2_cell_moves_the_free_rank():
    # a free 2-cell on T^4, # CP^2 at chain level: a zero column of d_2 and
    # a zero row of d_3, so the augmented d_3 gains a zero row
    t4 = torus4_complex()
    g, z = t4.group, ring_zero(t4.group)
    d2, d3 = t4.d(2), t4.d(3)
    boundaries = list(t4.boundaries)
    boundaries[1] = RingMatrix(g, d2.rows, d2.cols + 1, [row + [z] for row in d2.entries])
    boundaries[2] = RingMatrix(g, d3.rows + 1, d3.cols, d3.entries + [[z] * d3.cols])
    ranks = t4.ranks[:2] + (t4.ranks[2] + 1,) + t4.ranks[3:]
    summed = LambdaComplex(g, t4.w, ranks, boundaries)
    before, after = d3.augment(t4.w), summed.d(3).augment(summed.w)
    assert after.data == before.data + [[0] * before.cols]
    # em_torsion keeps its torsion and gains one free summand, every m
    expected = {0: (10, ()), 1: (6, ()), 2: (6, (2,) * 4)}
    for m, (free, torsion) in expected.items():
        assert em_torsion(before, m) == AbelianInvariants(free, torsion)
        assert em_torsion(after, m) == AbelianInvariants(free + 1, torsion)
    # against T^4's own family the torsion still decides, while a rule on the
    # free rank too would fit no twisting number after the move: the free
    # rank is not a CP^2-stable invariant
    fam = EmFamily.from_matrix(before)
    for m, answer in ((0, {0, 1}), (1, {0, 1}), (2, {2}), (3, {3})):
        assert recover_m(em_torsion(before, m), fam) == answer
        assert recover_m(em_torsion(after, m), fam) == answer
        assert all(em_closed_form(fam, k) != em_torsion(after, m) for k in range(10))


def test_recover_m_needs_free_summand():
    fam = EmFamily(0, (2,), 1)
    with pytest.raises(HypothesisViolated):
        recover_m(AbelianInvariants(1, (2,)), fam)


# ---- psi off (Z/2)^k: the dual boundaries carry the involution ---------------


def _admissible_signs(orders):
    """Every character of the product: -1 only on generators of even order."""
    choices = [(1, -1) if n % 2 == 0 else (1,) for n in orders]
    return [signs for signs in itertools.product(*choices)]


PSI_SWEEP = [(orders, signs) for orders in ((2, 3), (2, 4), (3, 3), (4, 4)) for signs in _admissible_signs(orders)]


@pytest.mark.parametrize("orders,signs", PSI_SWEEP, ids=["x".join(map(str, o)) + ":" + ",".join("%+d" % s for s in w)
                                                          for o, w in PSI_SWEEP])
def test_psi_chase_is_an_injective_homomorphism_on_h4(orders, signs):
    # boundaries chase to the trivial class, the basis cycles of
    # ker(d_4 (x) Z^w) chase without leaving the cocycle lattice, psi is
    # additive, and only the zero class of H_4 goes to the trivial class
    from fourfold.homology import group_homology
    from fourfold.intmat import kernel_basis, smith_normal_form, solve_columns, solve_integer

    g = product_group(orders)
    w = char_from_signs(g, signs)
    res = resolution_for(g)
    c2 = presentation_complex(g)

    def psi(z):
        return psi_chase(res, c2, w, list(z))

    bounds = res.d(5).augment(w)
    for b in bounds.columns():
        assert psi(b).is_trivial()
    cycles = kernel_basis(res.d(4).augment(w))
    basis = [psi(z) for z in cycles.columns()]
    for (a, za), (b, zb) in itertools.combinations(zip(basis, cycles.columns()), 2):
        assert psi([x + y for x, y in zip(za, zb)]).same_class(baer_sum(a, b))
    # H_4 = ker / im in the coordinates of the kernel basis: generator i is
    # column i of U^-1, of order diag[i]
    coords = IntMatrix.from_columns(solve_columns(cycles, bounds.columns()), cycles.cols)
    snf = smith_normal_form(coords)
    h4 = group_homology(g, w, 4)
    assert h4.free_rank == 0 and tuple(d for d in snf.diag if d > 1) == h4.torsion
    size = math.prod(h4.torsion)
    assert size <= 16
    gens = []
    for i, d in enumerate(snf.diag):
        if d > 1:
            e = [int(j == i) for j in range(cycles.cols)]
            gens.append((d, cycles.mul_vec(solve_integer(snf.U, e))))
    trivial = []
    for coeffs in itertools.product(*(range(d) for d, _ in gens)):
        z = [sum(a * zi[k] for a, (_, zi) in zip(coeffs, gens)) for k in range(cycles.rows)]
        trivial.append(psi(z).is_trivial())
    assert len(trivial) == size and trivial == [True] + [False] * (size - 1)
