"""The lens criteria walk the units of a modulus and ask one congruence.

manifolds.units_mod lists the units mod n lazily, in increasing order,
and squares_mod and manifolds.square_walk walk that listing.  Homotopy
equivalence, linking-form isometry and the signed-square relation of the
classes each read signed_square_witness of the ratio of their two
parameters, which is the first discovery of that residue in the walk, so
a lens pair is decided by p and q2 / q1 alone.  The lens family keeps
one table of the whole walk per modulus, and one decision per
(p, q2 / q1) serves the whole report.  The functions below are frozen
copies of the four as they were when each scanned range(1, n) with its
own gcd test; they share no code with the package, and they are the
oracle: the first witness found must be the same unit as before, for
small and large moduli.  The modulus memo must hold every modulus of a
lens-family sweep of p <= 30.
"""

import math
import random

import pytest

from fourfold import classify
from fourfold.classify import classify_lens_family, kreck_equivalent, lens_times_circle_record
from fourfold.errors import BudgetExceeded, InvalidLens, budget, generator_budget
from fourfold.manifolds import (
    LensSpace,
    LinkingForm,
    lens_homotopy_equivalent,
    linking_form,
    linking_isometric,
    signed_square_witness,
    square_walk,
    squares_mod,
    units_mod,
)

from test_kreck_orbit import count_searches


# ---- frozen reference: one gcd scan per criterion ---------------------------


def ref_squares_mod(n):
    if n <= 1:
        return (1,)
    out = []
    for r in range(1, n):
        if math.gcd(r, n) == 1:
            out.append((r * r) % n)
    return tuple(sorted(set(out)))


def ref_signed_square_relation(p, a, b):
    for r in range(1, max(p, 2)):
        if math.gcd(r, p) != 1:
            continue
        if (r * r * a - b) % p == 0:
            return True, {"r": r, "sign": 1}
        if (r * r * a + b) % p == 0:
            return True, {"r": r, "sign": -1}
    return False, None


def ref_lens_homotopy_equivalent(p, q1, q2):
    for r in range(1, p):
        if math.gcd(r, p) != 1:
            continue
        rr = r * r % p
        if (q2 - rr * q1) % p == 0:
            return True, r, 1
        if (q2 + rr * q1) % p == 0:
            return True, r, -1
    return False, None, None


def ref_linking_isometric(f1, f2):
    p = f1.order
    for u in range(1, p):
        if math.gcd(u, p) != 1:
            continue
        uu = u * u % p
        if (f2.value - uu * f1.value) % p == 0:
            return True, u, 1
        if (f2.value + uu * f1.value) % p == 0:
            return True, u, -1
    return False, None, None


def brute_units(n):
    return [r for r in range(1, n) if math.gcd(r, n) == 1]


# ---- the listing ------------------------------------------------------------


def test_units_mod_matches_a_gcd_listing():
    for n in range(2, 201):
        assert list(units_mod(n)) == brute_units(n), n
    assert list(units_mod(1)) == [1]
    # a fresh iterator on every call
    units = units_mod(30)
    assert iter(units) is units and units is not units_mod(30)
    with pytest.raises(InvalidLens):
        units_mod(0)


def test_large_moduli_are_listed_lazily():
    n = 1031
    assert list(units_mod(n)) == brute_units(n)
    # a witness near the start of a huge modulus is found without listing
    # the units
    p = 10**9 + 7
    assert next(units_mod(p)) == 1
    assert lens_homotopy_equivalent(p, 1, 4) == (True, 2, 1)
    assert linking_isometric(LinkingForm(p, 1), LinkingForm(p, 4)) == (True, 2, 1)


# ---- the criteria against their frozen copies -------------------------------


def class_relation(p, a, b):
    """The signed-square relation of two classes, as the lens family's
    class criterion reads it: the witness of b / a, as (found, cert)."""
    found, r, sign = signed_square_witness(p, b * pow(a, -1, p) % p)
    return found, ({"r": r, "sign": sign} if found else None)


def test_criteria_match_their_frozen_copies():
    for p in range(2, 61):
        assert squares_mod(p) == ref_squares_mod(p), p
        units = brute_units(p)
        for q1 in units:
            for q2 in units:
                assert lens_homotopy_equivalent(p, q1, q2) == ref_lens_homotopy_equivalent(p, q1, q2)
                f1, f2 = linking_form(LensSpace(p, q1)), linking_form(LensSpace(p, q2))
                assert linking_isometric(f1, f2) == ref_linking_isometric(f1, f2)
                assert class_relation(p, q1, q2) == ref_signed_square_relation(p, q1, q2)
    assert squares_mod(1) == ref_squares_mod(1)


def test_the_lazy_walk_matches_the_frozen_copies():
    # moduli above the size of the unit tables the walk once read
    rng = random.Random(22)
    for p in (1031, 1155, 2048, 4095):
        units = brute_units(p)
        for _ in range(200):
            q1, q2 = rng.choice(units), rng.choice(units)
            assert lens_homotopy_equivalent(p, q1, q2) == ref_lens_homotopy_equivalent(p, q1, q2)
            f1, f2 = LinkingForm(p, q1), LinkingForm(p, q2)
            assert linking_isometric(f1, f2) == ref_linking_isometric(f1, f2)
            assert class_relation(p, q1, q2) == ref_signed_square_relation(p, q1, q2)


# ---- one decision per (p, q2 / q1) ------------------------------------------


def test_a_pair_is_decided_as_one_and_its_ratio():
    for p in range(2, 31):
        units = brute_units(p)
        for q1 in units:
            for q2 in units:
                x = q2 * pow(q1, -1, p) % p
                rep, normal = classify_lens_family(p, q1, q2), classify_lens_family(p, 1, x)
                assert (rep.equivalent, rep.verdicts, rep.certificates) == (
                    normal.equivalent, normal.verdicts, normal.certificates)
                inv1, inv2 = pow(q1, -1, p), pow(q2, -1, p)
                for a, b in ((q1, q2), (1, x)):
                    homot, r, sign = ref_lens_homotopy_equivalent(p, a, b)
                    link, u, lsign = ref_linking_isometric(
                        linking_form(LensSpace(p, a)), linking_form(LensSpace(p, b)))
                    assert rep.certificates["lens_homotopy"] == ({"r": r, "sign": sign} if homot else None)
                    assert rep.certificates["linking_form"] == ({"unit": u, "sign": lsign} if link else None)
                    assert rep.verdicts == dict.fromkeys(rep.verdicts, homot)
                assert ref_signed_square_relation(p, inv1, inv2) == (
                    rep.verdicts["class_square_orbit"], rep.certificates["class_square_orbit"])
                assert ref_signed_square_relation(p, 1, pow(x, -1, p)) == (
                    rep.verdicts["class_square_orbit"], rep.certificates["class_square_orbit"])
                # the orbit search from the pair's own classes finds the same certificate
                own = kreck_equivalent(lens_times_circle_record(p, q1), lens_times_circle_record(p, q2))
                assert own == (rep.verdicts["kreck_orbit"], rep.certificates["kreck_orbit"])


def test_lens_sweep_searches_each_start_class_once(monkeypatch):
    walks, searches = count_searches(monkeypatch)
    classify._lens_modulus.cache_clear()
    pairs = [(p, q1, q2) for p in range(2, 31) for q1 in brute_units(p) for q2 in brute_units(p)]
    random.Random(21).shuffle(pairs)
    for p, q1, q2 in pairs:
        classify_lens_family(p, q1, q2)
    assert len(pairs) == 3889
    # one kept modulus, and so one orbit walk and one walk of the units,
    # per p; one decision, and so one resumed query of that walk, per
    # (p, q2 / q1).  277 orbit searches when each decision ran its own,
    # 3889 x 3 witness searches before any was memoised
    ratios = {(p, q2 * pow(q1, -1, p) % p) for p, q1, q2 in pairs}
    assert len(ratios) == 277
    info = classify._lens_modulus.cache_info()
    assert (info.misses, info.hits, info.currsize) == (29, 3860, 29)
    moduli = [classify._lens_modulus(p, generator_budget()) for p in range(2, 31)]
    assert sum(len(modulus.decisions) for modulus in moduli) == 277
    assert len(searches) == 277
    assert len(walks) == 29 and {id(walk) for walk in walks} == {id(modulus.walk) for modulus in moduli}
    assert {id(walk) for walk, _ in searches} == {id(modulus.walk) for modulus in moduli}


def test_the_witness_is_the_first_discovery_of_the_walk():
    # the first unit of the walk to meet each residue as +-r^2, read off
    # the walk itself and off the kept table of the lens family
    for p in range(2, 201):
        first = {}
        for r, rr in square_walk(p):
            first.setdefault(rr, (r, 1))
            first.setdefault(-rr % p, (r, -1))
        assert classify._lens_modulus(p, generator_budget()).witnesses == first
        for x in range(p):
            found, r, sign = signed_square_witness(p, x)
            assert (found, r, sign) == ((True,) + first[x] if x in first else (False, None, None))
            if math.gcd(x, p) == 1:
                assert (found, r, sign) == ref_lens_homotopy_equivalent(p, 1, x)
                assert (found, {"r": r, "sign": sign} if found else None) == ref_signed_square_relation(p, 1, x)


def test_lens_records_over_one_modulus_share_their_multipliers():
    a, b = classify.lens_times_circle_record(29, 1), classify.lens_times_circle_record(29, 3)
    assert a.aut_multipliers == b.aut_multipliers == squares_mod(29) == ref_squares_mod(29)
    n = 1033
    assert squares_mod(n) == ref_squares_mod(n)


# ---- certificates are fresh on every call -----------------------------------


def test_certificates_are_fresh_on_every_call():
    f1, f2 = LinkingForm(29, 1), LinkingForm(29, 4)
    for _ in range(2):
        rep = classify_lens_family(29, 1, 4)
        # the classes are 1 and 4^-1 = 22 mod 29, and 22 = -(6^2)
        assert rep.certificates == {
            "kreck_orbit": {"multiplier": 22, "sign": 1},
            "class_square_orbit": {"r": 6, "sign": -1},
            "lens_homotopy": {"r": 2, "sign": 1},
            "linking_form": {"unit": 2, "sign": 1},
        }
        assert rep.verdicts == dict.fromkeys(rep.verdicts, True)
        for cert in rep.certificates.values():
            cert["sign"] = 0
        rep.certificates.clear()
        rep.verdicts.clear()
        # these three answer with tuples, which no caller can change
        assert lens_homotopy_equivalent(29, 1, 4) == linking_isometric(f1, f2) == (True, 2, 1)
        assert signed_square_witness(29, 4) == (True, 2, 1)


# ---- the witness searches are charged against the budget --------------------


def test_witness_searches_are_charged_against_the_budget():
    # 2 is a non-residue mod 29 = 1 mod 4, so no search meets a witness
    # and each walks all 28 units; nothing is memoised, so each asks anew
    searches = (
        (lambda: lens_homotopy_equivalent(29, 1, 2), (False, None, None)),
        (lambda: linking_isometric(LinkingForm(29, 1), LinkingForm(29, 2)), (False, None, None)),
        (lambda: signed_square_witness(29, 2), (False, None, None)),
    )
    for ask, answer in searches:
        with budget(27), pytest.raises(BudgetExceeded, match="mod 29 has no witness in its first 27 units, budget 27"):
            ask()
        with budget(28):
            assert ask() == answer
    # 4 = 2^2: the witness is the second unit walked
    with budget(1), pytest.raises(BudgetExceeded):
        lens_homotopy_equivalent(31, 1, 4)
    with budget(2):
        assert lens_homotopy_equivalent(31, 1, 4) == (True, 2, 1)


def test_a_witness_search_of_a_huge_modulus_ends_at_the_budget():
    # 11 is a non-residue mod the prime 1000000009 = 1 mod 4
    p = 1000000009
    for ask in (
        lambda: lens_homotopy_equivalent(p, 1, 11),
        lambda: linking_isometric(LinkingForm(p, 1), LinkingForm(p, 11)),
        lambda: signed_square_witness(p, 11),
    ):
        with budget(1000), pytest.raises(BudgetExceeded, match="no witness in its first 1000 units"):
            ask()
    # the ratio is what is searched: 11 * 3 over 3 is refused the same way
    with budget(1000), pytest.raises(BudgetExceeded):
        lens_homotopy_equivalent(p, 3, 33)


# ---- linking forms ----------------------------------------------------------


def test_linking_form_needs_order_at_least_2():
    for order in (1, 0, -3):
        with pytest.raises(InvalidLens):
            LinkingForm(order, 1)
    f = LinkingForm(2, 1)
    assert linking_isometric(f, f) == (True, 1, 1)
    assert f.evaluate_num(1, 1) == 1
