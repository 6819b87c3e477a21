"""The lens criteria read one table of units per modulus.

manifolds.units_mod lists the units mod n once and keeps the list, and
the three lens criteria and squares_mod each search it in increasing
order.  The functions below are frozen copies of those four as they were
when each scanned range(1, n) with its own gcd test; they are the oracle.
Each criterion keeps its own search, so the verdicts stay independent,
and the first witness found must be the same unit as before.  The orbit
memo must hold every start class of a lens-family sweep of p <= 30.
"""

import math
import random

import pytest

from fourfold import classify, manifolds
from fourfold.classify import _signed_square_relation, classify_lens_family, squares_mod
from fourfold.errors import InvalidLens
from fourfold.manifolds import (
    LensSpace,
    LinkingForm,
    lens_homotopy_equivalent,
    linking_form,
    linking_isometric,
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


# ---- the sweep's counts -----------------------------------------------------


def test_lens_sweep_searches_each_start_class_once():
    table = manifolds._units_table
    classify._orbit.cache_clear()
    classify._lens_times_circle_record.cache_clear()
    table.cache_clear()
    pairs = [(p, q1, q2) for p in range(2, 31) for q1 in brute_units(p) for q2 in brute_units(p)]
    random.Random(21).shuffle(pairs)
    for p, q1, q2 in pairs:
        classify_lens_family(p, q1, q2)
    assert len(pairs) == 3889
    # one search per start class; 373 in this order when the memo held 256
    # orbits and searched 96 start classes again
    assert classify._orbit.cache_info().misses == 277
    assert classify._orbit.cache_info().currsize == 277
    # one unit table per modulus, read by every criterion
    assert table.cache_info().misses == 29
    assert table.cache_info().currsize == 29


# ---- linking forms ----------------------------------------------------------


def test_linking_form_needs_order_at_least_2():
    for order in (1, 0, -3):
        with pytest.raises(InvalidLens):
            LinkingForm(order, 1)
    f = LinkingForm(2, 1)
    assert linking_isometric(f, f) == (True, 1, 1)
    assert f.evaluate_num(1, 1) == 1
