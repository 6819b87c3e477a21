"""The classification layer: records, orbits, lens families, the
aspherical route, and the exact-sequence bookkeeping."""

import itertools
import math
import random
import re

import pytest

from fourfold import classify, homology, intmat
from fourfold.classify import (
    ManifoldRecord,
    aspherical_equivalent,
    bordism_group,
    classify_aspherical,
    classify_lens_family,
    _chain_map_to_resolution,
    default_aut_multipliers,
    hopf_check,
    kreck_equivalent,
    lens_times_circle_record,
    squares_mod,
)
from fourfold.complexes import LambdaComplex, presentation_complex
from fourfold.extensions import em_torsion
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    laurent_extension,
    product_group,
    trivial_char,
    trivial_group,
)
from fourfold.intmat import AbelianInvariants, IntMatrix
from fourfold.manifolds import (
    LensSpace,
    cp2_complex,
    lens_complex,
    rp4_complex,
    s4_complex,
    torus4_complex,
)
from fourfold.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DimensionMismatch,
    HypothesisViolated,
    InfiniteGroup,
    InvalidLens,
    TypeMismatch,
    budget,
    generator_budget,
)
from test_extensions import ref_em_torsion

Z = AbelianInvariants(1, ())
ZERO = AbelianInvariants(0, ())


def c(*torsion):
    return AbelianInvariants(0, tuple(torsion))


def test_squares_mod():
    assert squares_mod(5) == (1, 4)
    assert squares_mod(7) == (1, 2, 4)
    assert squares_mod(8) == (1,)
    assert squares_mod(1) == (1,)


def test_manifold_record_reduces_coordinates():
    g = laurent_extension(cyclic_group(5), 1)
    r = ManifoldRecord(group=g, w_signs=(1, 1), class_h4=(7,), h4=c(5))
    assert r.class_h4 == (2,)
    with pytest.raises(DimensionMismatch):
        ManifoldRecord(group=g, w_signs=(1, 1), class_h4=(1, 2), h4=c(5))


def _hand_record(group, signs, cls, mults=None):
    """A record assembled by hand, as the command line once did it."""
    return ManifoldRecord(
        group=group,
        w_signs=signs,
        class_h4=cls,
        h4=homology.group_homology(group, char_from_signs(group, signs), 4),
        aut_multipliers=default_aut_multipliers(group) if mults is None else mults,
    )


@pytest.mark.parametrize(
    "group, signs, cls",
    [
        (cyclic_group(5), (1,), ()),
        (cyclic_group(2), (-1,), (1,)),
        (laurent_extension(cyclic_group(4), 1), (1, 1), (3,)),
        (laurent_extension(cyclic_group(6), 1), (-1, 1), (1,)),
        (product_group((2, 2)), (-1, -1), (1, 0, 1)),
        (laurent_extension(cyclic_group(3), 2), (1, 1, 1), (1, 2)),
    ],
)
@pytest.mark.parametrize("mults", [None, (2,), (-1, 5)])
def test_manifold_record_over_computes_h4_and_default_multipliers(group, signs, cls, mults):
    h4 = homology.group_homology(group, char_from_signs(group, signs), 4)
    bad = [m for m in mults or () if not _permutes(m, h4)]
    if bad:
        # 2 is not an automorphism of an H_4 with 2-torsion
        message = "multiplier %d is not an automorphism of %s" % (bad[0], h4)
        for build in (ManifoldRecord.over, _hand_record):
            with pytest.raises(HypothesisViolated, match=re.escape(message)):
                build(group, signs, cls, mults)
        return
    record = ManifoldRecord.over(group, signs, cls, mults)
    assert record == _hand_record(group, signs, cls, mults)
    assert record.aut_multipliers == (default_aut_multipliers(group) if mults is None else mults)


def _permutes(m, h4):
    """Does multiplying by m permute H_4?  By listing its torsion images;
    on a free part only +-1 is onto."""
    torsion = list(itertools.product(*(range(t) for t in h4.torsion)))
    images = {tuple(m * x % t for x, t in zip(v, h4.torsion)) for v in torsion}
    return len(images) == len(torsion) and (not h4.free_rank or m in (1, -1))


def test_records_compare_however_their_fields_are_spelled():
    g = laurent_extension(cyclic_group(5), 1)
    listed = ManifoldRecord.over(g, [1, 1], [2], [1, 4])
    assert kreck_equivalent(listed, ManifoldRecord.over(g, (1, 1), (3,))) == (True, {"multiplier": 4, "sign": 1})
    assert listed == ManifoldRecord.over(g, (1, 1), (2,), (1, 4))
    assert hash(listed) == hash(ManifoldRecord.over(g, (1, 1), (2,), (1, 4)))
    assert listed.w_signs == (1, 1) and listed.aut_multipliers == (1, 4)
    # a tuple is kept as the same object
    signs, mults = (1, 1), (1, 4)
    record = ManifoldRecord.over(g, signs, (2,), mults)
    assert record.w_signs is signs and record.aut_multipliers is mults


def test_lens_times_circle_record_reads_h4_from_group_homology():
    for p in range(2, 13):
        g = laurent_extension(cyclic_group(p), 1)
        base, w = cyclic_group(p), trivial_char(cyclic_group(p))
        # H_4(Z/p x Z) = H_4(Z/p) + H_3(Z/p) = 0 + Z/p
        h4, h3 = homology.group_homology(base, w, 4), homology.group_homology(base, w, 3)
        split = AbelianInvariants.from_diag(h4.free_rank + h3.free_rank, h4.torsion + h3.torsion)
        assert split == c(p)
        for q in (q for q in range(1, p) if math.gcd(p, q) == 1):
            record = lens_times_circle_record(p, q)
            assert record.h4 == homology.group_homology(g, trivial_char(g), 4) == split
            assert record.aut_multipliers == squares_mod(p)


def test_bordism_anchors():
    g = trivial_group()
    assert bordism_group(g, trivial_char(g)) == (Z, ZERO)
    for p in (2, 3, 5, 7):
        gp = cyclic_group(p)
        assert bordism_group(gp, trivial_char(gp)) == (Z, ZERO)
    g2 = cyclic_group(2)
    assert bordism_group(g2, char_from_signs(g2, (-1,))) == (c(2), c(2))
    gx = laurent_extension(cyclic_group(5), 1)
    assert bordism_group(gx, trivial_char(gx)) == (Z, c(5))
    # reversing the free direction: H_4(Z/5)/2 + H_3(Z/5)[2] = 0
    assert bordism_group(gx, char_from_signs(gx, (1, -1))) == (c(2), ZERO)


def test_kreck_orbit_mod5_and_mod7():
    a = lens_times_circle_record(5, 1)
    b = lens_times_circle_record(5, 2)
    eq, cert = kreck_equivalent(a, b)
    assert not eq and cert is None
    a = lens_times_circle_record(7, 1)
    b = lens_times_circle_record(7, 2)
    eq, cert = kreck_equivalent(a, b)
    assert eq
    assert cert == {"multiplier": 4, "sign": 1}


def test_kreck_certificate_is_checkable():
    for p in (7, 9, 11, 13):
        units = [q for q in range(1, p) if math.gcd(q, p) == 1]
        for q1 in units:
            for q2 in units:
                r1 = lens_times_circle_record(p, q1)
                r2 = lens_times_circle_record(p, q2)
                eq, cert = kreck_equivalent(r1, r2)
                if not eq:
                    continue
                m, s = cert["multiplier"], cert["sign"]
                moved = r1.reduce(tuple(s * m * x for x in r1.class_h4))
                assert moved == r2.class_h4, (p, q1, q2, cert)


def test_kreck_is_an_equivalence_relation():
    for p in (5, 8, 12):
        units = [q for q in range(1, p) if math.gcd(q, p) == 1]
        recs = {q: lens_times_circle_record(p, q) for q in units}
        for q1 in units:
            assert kreck_equivalent(recs[q1], recs[q1])[0]
            for q2 in units:
                assert (
                    kreck_equivalent(recs[q1], recs[q2])[0]
                    == kreck_equivalent(recs[q2], recs[q1])[0]
                )
        for q1 in units:
            for q2 in units:
                if not kreck_equivalent(recs[q1], recs[q2])[0]:
                    continue
                for q3 in units:
                    if kreck_equivalent(recs[q2], recs[q3])[0]:
                        assert kreck_equivalent(recs[q1], recs[q3])[0]


def test_kreck_type_mismatch():
    a = lens_times_circle_record(5, 1)
    b = lens_times_circle_record(7, 1)
    with pytest.raises(TypeMismatch):
        kreck_equivalent(a, b)


def test_kreck_negation_on_free_part():
    g = trivial_group()
    h4 = AbelianInvariants(1, ())
    a = ManifoldRecord(group=g, w_signs=(), class_h4=(2,), h4=h4, aut_multipliers=(1,))
    b = ManifoldRecord(group=g, w_signs=(), class_h4=(-2,), h4=h4, aut_multipliers=(1,))
    eq, cert = kreck_equivalent(a, b)
    assert eq and cert["sign"] == -1
    d = ManifoldRecord(group=g, w_signs=(), class_h4=(3,), h4=h4, aut_multipliers=(1,))
    assert not kreck_equivalent(a, d)[0]


def test_multipliers_that_would_grow_a_free_part_are_refused():
    # multiplying a free coordinate by 2 is not onto, and 0 kills it: such a
    # record is refused, so no search ever meets a growing free part
    g = trivial_group()
    h4 = AbelianInvariants(1, (2,))
    for mults, bad in (((2, 3), 2), ((0, 2), 0), ((-1, 3), 3), ((1, 2, -1), 2)):
        with pytest.raises(HypothesisViolated, match="multiplier %d is not an automorphism of Z \\+ Z/2$" % bad):
            ManifoldRecord(group=g, w_signs=(), class_h4=(1, 1), h4=h4, aut_multipliers=mults)
    # torsion only: the units of the last order pass, a shared prime does not
    for torsion, mults, ok in (((2, 4), (3, -1, 5), True), ((2, 4), (2,), False), ((3, 6), (5, 7), True),
                               ((3, 6), (4,), False), ((12,), (5, 7, 11), True), ((12,), (9,), False)):
        args = dict(group=g, w_signs=(), class_h4=(0,) * len(torsion), h4=AbelianInvariants(0, torsion),
                    aut_multipliers=mults)
        if ok:
            assert ManifoldRecord(**args).aut_multipliers == mults
        else:
            with pytest.raises(HypothesisViolated):
                ManifoldRecord(**args)
    # over H_4 = 0 every integer acts as the identity
    assert ManifoldRecord(group=g, w_signs=(), class_h4=(), h4=ZERO, aut_multipliers=(0, 2, 6)).aut_multipliers == (0, 2, 6)

    def rec(cls):
        return ManifoldRecord(group=g, w_signs=(), class_h4=cls, h4=h4, aut_multipliers=(-1,))

    assert kreck_equivalent(rec((1, 1)), rec((-1, 1))) == (True, {"multiplier": -1, "sign": 1})
    assert kreck_equivalent(rec((1, 1)), rec((-12, 0))) == (False, None)
    assert kreck_equivalent(rec((1, 1)), rec((1, 0))) == (False, None)


def test_kreck_orbit_search_is_charged_against_the_budget():
    # Z/7: 7 classes, each trying the three squares 1, 2, 4 and the sign
    a, b = lens_times_circle_record(7, 1), lens_times_circle_record(7, 2)
    with budget(27), pytest.raises(BudgetExceeded, match="orbit search needs 7 classes x 4 moves, budget 27"):
        kreck_equivalent(a, b)
    with budget(28):
        assert kreck_equivalent(a, b) == (True, {"multiplier": 4, "sign": 1})
    # with a free part the classes are the two signs of the free part times
    # the 2 torsion values, 3 moves each (-1, 1 and the sign), whatever the
    # target's coordinates
    h4 = AbelianInvariants(1, (2,))

    def rec(cls):
        return ManifoldRecord(group=trivial_group(), w_signs=(), class_h4=cls, h4=h4, aut_multipliers=(-1, 1))

    for target in ((-1, 1), (-12, 0), (10**6, 1)):
        with budget(11), pytest.raises(BudgetExceeded, match="needs 4 classes x 3 moves, budget 11"):
            kreck_equivalent(rec((1, 1)), rec(target))
        expect = (True, {"multiplier": -1, "sign": 1}) if target == (-1, 1) else (False, None)
        with budget(12):
            assert kreck_equivalent(rec((1, 1)), rec(target)) == expect


def test_a_refused_lens_decision_is_not_kept():
    # the resolution of Z/29 x Z needs 29 terms for its norm element, and
    # the orbit search of Z/29 needs 29 classes x 15 moves, so budget 400
    # refuses the search and 27 the resolution; Z/100003 is refused by the
    # norm element of its resolution before any record is built.  Nothing
    # of any call stays in the modulus memo (a kept modulus answers
    # without a charge, so the memo starts cold)
    cases = ((29, 400, "orbit search needs 29 classes x 15 moves, budget 400"),
             (29, 27, "the norm element of Z/29 needs 29 terms, budget 27"),
             (100003, 100000, "the norm element of Z/100003 needs 100003 terms, budget 100000"))
    classify._lens_modulus.cache_clear()
    classify_lens_family(29, 1, 1)
    for p, n, message in cases:
        kept = classify._lens_modulus.cache_info().currsize
        assert kept == 1
        for q2 in (2, 4):
            with budget(n), pytest.raises(BudgetExceeded, match=re.escape(message)):
                classify_lens_family(p, 1, q2)
        assert classify._lens_modulus.cache_info().currsize == kept
    assert classify_lens_family(29, 1, 4).equivalent


def test_a_lens_pair_has_one_validator():
    from fourfold.manifolds import lens_homotopy_equivalent

    for p, q1, q2 in ((6, 2, 1), (6, 1, 3), (1, 1, 1), (0, 1, 1), (-5, 1, 2), (10, 5, 5)):
        with pytest.raises(InvalidLens) as family:
            classify_lens_family(p, q1, q2)
        with pytest.raises(InvalidLens) as homotopy:
            lens_homotopy_equivalent(p, q1, q2)
        with pytest.raises(InvalidLens) as space:
            LensSpace(p, q1)
            LensSpace(p, q2)
        assert str(family.value) == str(homotopy.value) == str(space.value)
    assert str(space.value) == "q must be a unit mod p"


def test_lens_family_anchors():
    rep = classify_lens_family(5, 1, 2)
    assert not rep.equivalent
    assert set(rep.verdicts.values()) == {False}
    rep = classify_lens_family(7, 1, 2)
    assert rep.equivalent
    assert set(rep.verdicts.values()) == {True}
    assert rep.certificates["lens_homotopy"] == {"r": 3, "sign": 1}
    assert rep.certificates["linking_form"] == {"unit": 3, "sign": 1}
    assert rep.certificates["class_square_orbit"] == {"r": 2, "sign": 1}
    assert rep.certificates["kreck_orbit"] == {"multiplier": 4, "sign": 1}


def test_lens_family_small_sweep_agrees_with_homotopy():
    from fourfold.manifolds import lens_homotopy_equivalent

    for p in (5, 7, 8, 9):
        units = [q for q in range(1, p) if math.gcd(q, p) == 1]
        for q1 in units:
            for q2 in units:
                rep = classify_lens_family(p, q1, q2)
                assert rep.equivalent == lens_homotopy_equivalent(p, q1, q2)[0]


def torus_d3_aug():
    t4 = torus4_complex()
    return t4.d(3).augment(t4.w)


def test_classify_aspherical_torus_family():
    d3 = torus_d3_aug()
    for m in range(2, 9):
        assert em_torsion(d3, m) == ref_em_torsion(d3, m)
        assert em_torsion(d3, -m) == ref_em_torsion(d3, -m)
        assert classify_aspherical(d3, em_torsion(d3, m)) == {m}
        assert classify_aspherical(d3, em_torsion(d3, -m)) == {m}
    assert classify_aspherical(d3, em_torsion(d3, 0)) == {0, 1}
    assert classify_aspherical(d3, em_torsion(d3, 1)) == {0, 1}


def test_classify_aspherical_invariant_under_unimodular_change():
    rng = random.Random(4242)
    d3 = torus_d3_aug()

    def random_unimodular(n):
        m = IntMatrix.identity(n)
        data = [list(r) for r in m.data]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            k = rng.randint(-2, 2)
            for col in range(n):
                data[i][col] += k * data[j][col]
        return IntMatrix(n, n, data)

    u = random_unimodular(d3.rows)
    v = random_unimodular(d3.cols)
    moved = u * d3 * v
    for m in (0, 1, 2, 5):
        assert classify_aspherical(moved, em_torsion(moved, m)) == classify_aspherical(
            d3, em_torsion(d3, m)
        )


def test_aspherical_equivalent_decisions():
    d3 = torus_d3_aug()
    eq, cert = aspherical_equivalent(d3, em_torsion(d3, 3), em_torsion(d3, -3))
    assert eq and cert["m"] == 3
    eq, cert = aspherical_equivalent(d3, em_torsion(d3, 2), em_torsion(d3, 3))
    assert not eq
    # ambiguous twist needs the external flags
    with pytest.raises(HypothesisViolated):
        aspherical_equivalent(d3, em_torsion(d3, 0), em_torsion(d3, 1))
    eq, cert = aspherical_equivalent(
        d3, em_torsion(d3, 0), em_torsion(d3, 1), proj1=True, proj2=True
    )
    assert eq
    eq, cert = aspherical_equivalent(
        d3, em_torsion(d3, 0), em_torsion(d3, 1), proj1=True, proj2=False
    )
    assert not eq


def test_aspherical_rejects_impossible_invariants():
    d3 = torus_d3_aug()
    with pytest.raises(HypothesisViolated):
        aspherical_equivalent(d3, AbelianInvariants(0, (7,)), em_torsion(d3, 7))


def test_hopf_check_sphere():
    rep = hopf_check(s4_complex())
    assert rep.passed
    assert "H4_surjective" in rep.checks
    assert rep.groups["H2_pi"] == ZERO


def test_hopf_check_cp2():
    rep = hopf_check(cp2_complex())
    assert rep.passed
    # infinite comparison groups make two of the divisibility checks empty
    assert len(rep.notes) == 2


def test_hopf_check_rp4():
    rep = hopf_check(rp4_complex())
    assert rep.passed
    assert rep.checks["H4_surjective"]
    assert rep.groups["H4_pi"] == c(2)
    assert rep.groups["H4_M"] == Z
    assert rep.maps[4].surjective


def test_hopf_check_answers_the_same_with_warm_memos():
    for build in (rp4_complex, cp2_complex, s4_complex):
        c = build()
        cold, warm = hopf_check(c), hopf_check(c)
        assert (cold.groups, cold.checks, cold.notes) == (warm.groups, warm.checks, warm.notes)
        for deg, m in cold.maps.items():
            n = warm.maps[deg]
            assert (m.kernel, m.cokernel) == (n.kernel, n.cokernel)


def test_chain_map_lifts_reduce_each_resolution_boundary_once(monkeypatch):
    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    pairs = [(p, q) for p in range(2, 16) for q in range(1, p) if math.gcd(p, q) == 1]
    # fresh resolutions, one per p, whatever earlier tests left in the cache
    resolutions = {p: homology._resolution.__wrapped__(cyclic_group(p), 5, generator_budget()) for p, _ in pairs}
    complexes = [(lens_complex(LensSpace(p, q)), resolutions[p]) for p, q in pairs]
    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    for c, res in complexes:
        _chain_map_to_resolution(c, res)
    distinct = {(a.rows, a.cols, tuple(map(tuple, a.data))) for a in reduced}
    assert len(pairs) == 71
    # 213 when every lift expanded and reduced its boundary again
    assert len(reduced) == len(distinct) == 28


def _padded_z6_z6():
    """The Z/6 x Z/6 presentation complex with zero-rank cells in degrees 3-4."""
    g = product_group((6, 6))
    c = presentation_complex(g)
    r = c.ranks
    pad = (RingMatrix.zeros(g, r[2], 0), RingMatrix.zeros(g, 0, 0))
    return LambdaComplex(g, c.w, r + (0, 0), c.boundaries + pad)


def test_hopf_check_reduces_no_matrix_for_unread_subquotients(monkeypatch):
    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    counts = []
    for build in (rp4_complex, cp2_complex, s4_complex, _padded_z6_z6):
        c = build()
        homology._resolution.cache_clear()
        del reduced[:]
        assert hopf_check(c).passed
        counts.append(len(reduced))
    # 63/64/64/72 when the induced maps also reduced their domain and codomain,
    # 54/55/55/63 when each read of an augmented boundary built a new matrix,
    # 41/42/42/50 when a boundary reused in several degrees was augmented and
    # reduced once per degree, 38/42/41/50 when the pi_2 relation lattice was
    # reduced for invariants that hopf_check does not read, 37/41/40/49 when
    # H_0 with module coefficients quotiented an identity cycle lattice,
    # 36/40/39/48 when the zero boundaries of CP^2 and S^4 were one matrix
    # per degree rather than one per shape
    assert counts == [36, 34, 34, 48]


def test_hopf_check_needs_finite_group():
    with pytest.raises(InfiniteGroup):
        hopf_check(torus4_complex())


def test_hopf_check_refuses_a_complex_below_degree_4_before_expanding(monkeypatch):
    def refuse(self):
        raise AssertionError("expand called")

    monkeypatch.setattr(RingMatrix, "expand", refuse)
    with pytest.raises(DegreeOutOfRange):
        hopf_check(presentation_complex(product_group((2, 2))))
