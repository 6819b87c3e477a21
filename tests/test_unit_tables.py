"""The lens criteria read one table of units per modulus and ask one
congruence.

manifolds.units_mod lists the units mod n once and keeps the list, and
squares_mod and manifolds.signed_square_witness walk it in increasing
order.  Homotopy equivalence, linking-form isometry and the signed-square
relation of the classes each read signed_square_witness of the ratio of
their two parameters, so one memo on (p, ratio) serves all three.  The
functions below are frozen copies of the four as they were when each
scanned range(1, n) with its own gcd test; they share no code with the
package, and they are the oracle: the first witness found must be the
same unit as before, on the kept tables and on the lazy walk above
them.  The orbit memo must hold every start class of a lens-family sweep
of p <= 30, and the witness memo every ratio of it.
"""

import math
import random

import pytest

from fourfold import classify, manifolds
from fourfold.classify import _signed_square_relation, classify_lens_family
from fourfold.errors import BudgetExceeded, InvalidLens
from fourfold.manifolds import (
    LensSpace,
    LinkingForm,
    lens_homotopy_equivalent,
    linking_form,
    linking_isometric,
    signed_square_witness,
    squares_mod,
    units_mod,
)


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


# ---- the table --------------------------------------------------------------


def test_units_mod_matches_a_gcd_listing():
    for n in range(2, 201):
        assert list(units_mod(n)) == brute_units(n), n
    assert units_mod(1) == (1,)
    assert units_mod(30) is units_mod(30)
    with pytest.raises(InvalidLens):
        units_mod(0)


def test_large_moduli_are_listed_lazily():
    manifolds._units_table.cache_clear()
    n = manifolds._UNITS_TABLE_MAX + 7
    assert list(units_mod(n)) == brute_units(n)
    # a witness near the start of a huge modulus is found without a table
    p = 10**9 + 7
    assert lens_homotopy_equivalent(p, 1, 4) == (True, 2, 1)
    assert linking_isometric(LinkingForm(p, 1), LinkingForm(p, 4)) == (True, 2, 1)
    assert manifolds._units_table.cache_info().currsize == 0


# ---- the criteria against their frozen copies -------------------------------


def test_criteria_match_their_frozen_copies():
    for p in range(2, 61):
        assert squares_mod(p) == ref_squares_mod(p), p
        units = brute_units(p)
        for q1 in units:
            for q2 in units:
                assert lens_homotopy_equivalent(p, q1, q2) == ref_lens_homotopy_equivalent(p, q1, q2)
                f1, f2 = linking_form(LensSpace(p, q1)), linking_form(LensSpace(p, q2))
                assert linking_isometric(f1, f2) == ref_linking_isometric(f1, f2)
                assert _signed_square_relation(p, q1, q2) == ref_signed_square_relation(p, q1, q2)
    assert squares_mod(1) == ref_squares_mod(1)


def test_the_lazy_walk_matches_the_frozen_copies():
    # every modulus is above the kept-table size, so each search walks a
    # fresh listing of the units
    rng = random.Random(22)
    for p in (1031, 1155, 2048, 4095):
        assert p > manifolds._UNITS_TABLE_MAX
        units = brute_units(p)
        for _ in range(200):
            q1, q2 = rng.choice(units), rng.choice(units)
            assert lens_homotopy_equivalent(p, q1, q2) == ref_lens_homotopy_equivalent(p, q1, q2)
            f1, f2 = LinkingForm(p, q1), LinkingForm(p, q2)
            assert linking_isometric(f1, f2) == ref_linking_isometric(f1, f2)
            assert _signed_square_relation(p, q1, q2) == ref_signed_square_relation(p, q1, q2)


# ---- the sweep's counts -----------------------------------------------------


def test_lens_sweep_searches_each_start_class_once():
    table = manifolds._units_table
    memos = (classify._orbit, classify._lens_times_circle_record, manifolds._squares_table, table)
    for memo in memos + (signed_square_witness,):
        memo.cache_clear()
    pairs = [(p, q1, q2) for p in range(2, 31) for q1 in brute_units(p) for q2 in brute_units(p)]
    random.Random(21).shuffle(pairs)
    for p, q1, q2 in pairs:
        classify_lens_family(p, q1, q2)
    assert len(pairs) == 3889
    # one search per start class; 373 in this order when the memo held 256
    # orbits and searched 96 start classes again
    assert classify._orbit.cache_info().misses == 277
    assert classify._orbit.cache_info().currsize == 277
    # one unit table and one table of squares per modulus; the squares are
    # the multipliers of every record over that modulus
    assert table.cache_info().misses == 29
    assert table.cache_info().currsize == 29
    assert manifolds._squares_table.cache_info().misses == 29
    # one search per (p, q2 / q1) for all three criteria: homotopy and
    # linking ask that ratio, and the classes q^-1 ask its inverse, which
    # is the ratio of the swapped pair; 831 searches when each criterion
    # kept its own memo, 3889 x 3 before any was memoised
    ratios = {(p, q2 * pow(q1, -1, p) % p) for p, q1, q2 in pairs}
    assert len(ratios) == 277
    info = signed_square_witness.cache_info()
    assert (info.misses, info.currsize, info.hits) == (277, 277, 3 * 3889 - 277)


def test_lens_records_over_one_modulus_share_their_multipliers():
    a, b = classify.lens_times_circle_record(29, 1), classify.lens_times_circle_record(29, 3)
    assert a.aut_multipliers is b.aut_multipliers is squares_mod(29)
    # a larger modulus gets a fresh tuple, as units_mod gets a lazy listing
    n = manifolds._UNITS_TABLE_MAX + 9
    assert squares_mod(n) == ref_squares_mod(n)
    assert squares_mod(n) is not squares_mod(n)


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
        # these two answer with tuples, which no caller can change
        assert lens_homotopy_equivalent(29, 1, 4) == linking_isometric(f1, f2) == (True, 2, 1)
        found, cert = _signed_square_relation(29, 1, 4)
        assert (found, cert) == (True, {"r": 2, "sign": 1})
        cert["r"] = 5


# ---- the witness searches are charged against the budget --------------------


def test_witness_searches_are_charged_against_the_budget(monkeypatch):
    # 2 is a non-residue mod 29 = 1 mod 4, so no search meets a witness
    # and each walks all 28 units; a refusal is not memoised.  All three
    # ask (29, 2), so the memo is cleared before each one walks.
    searches = (
        (lambda: lens_homotopy_equivalent(29, 1, 2), (False, None, None)),
        (lambda: linking_isometric(LinkingForm(29, 1), LinkingForm(29, 2)), (False, None, None)),
        (lambda: _signed_square_relation(29, 1, 2), (False, None)),
    )
    for ask, answer in searches:
        signed_square_witness.cache_clear()
        monkeypatch.setenv("FOURFOLD_BUDGET", "27")
        with pytest.raises(BudgetExceeded, match="mod 29 has no witness in its first 27 units, budget 27"):
            ask()
        monkeypatch.setenv("FOURFOLD_BUDGET", "28")
        assert ask() == answer
    # 4 = 2^2: the witness is the second unit walked
    monkeypatch.setenv("FOURFOLD_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        lens_homotopy_equivalent(31, 1, 4)
    monkeypatch.setenv("FOURFOLD_BUDGET", "2")
    assert lens_homotopy_equivalent(31, 1, 4) == (True, 2, 1)
    monkeypatch.delenv("FOURFOLD_BUDGET")
    signed_square_witness.cache_clear()


def test_a_witness_search_of_a_huge_modulus_ends_at_the_budget(monkeypatch):
    # 11 is a non-residue mod the prime 1000000009 = 1 mod 4
    p = 1000000009
    monkeypatch.setenv("FOURFOLD_BUDGET", "1000")
    for ask in (
        lambda: lens_homotopy_equivalent(p, 1, 11),
        lambda: linking_isometric(LinkingForm(p, 1), LinkingForm(p, 11)),
        lambda: _signed_square_relation(p, 1, 11),
    ):
        with pytest.raises(BudgetExceeded, match="no witness in its first 1000 units"):
            ask()
    # the ratio is what is searched: 11 * 3 over 3 is refused the same way
    with pytest.raises(BudgetExceeded):
        lens_homotopy_equivalent(p, 3, 33)


# ---- linking forms ----------------------------------------------------------


def test_linking_form_needs_order_at_least_2():
    for order in (1, 0, -3):
        with pytest.raises(InvalidLens):
            LinkingForm(order, 1)
    f = LinkingForm(2, 1)
    assert linking_isometric(f, f) == (True, 1, 1)
    assert f.evaluate_num(1, 1) == 1
