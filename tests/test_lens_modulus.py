"""The lens family decides each modulus once and keeps it.

ref_lens_decision below is a frozen copy of the per-pair route as it was
before the kept modulus: two records, the Kreck comparison, the signed
square relation of the classes, homotopy equivalence and linking-form
isometry, each asked anew of the pair (1, x).  classify_lens_family must
give the same verdicts and certificates on every unit pair with p <= 60,
in sorted and in shuffled order, with its memos cold and warm.
"""

import math
import random

from fourfold import classify
from fourfold.classify import (
    _signed_square_relation,
    classify_lens_family,
    kreck_equivalent,
    lens_times_circle_record,
)
from fourfold.manifolds import (
    LensSpace,
    fundamental_class_invariant,
    lens_homotopy_equivalent,
    linking_form,
    linking_isometric,
)

CRITERIA = ("kreck_orbit", "class_square_orbit", "lens_homotopy", "linking_form")


# ---- frozen reference: one decision per pair, from scratch ------------------


def ref_lens_decision(p, x):
    l1, l2 = LensSpace(p, 1), LensSpace(p, x)
    kreck, kreck_cert = kreck_equivalent(lens_times_circle_record(p, 1), lens_times_circle_record(p, x))
    orbit, orbit_cert = _signed_square_relation(p, fundamental_class_invariant(l1), fundamental_class_invariant(l2))
    homot, r_wit, sign_wit = lens_homotopy_equivalent(p, 1, x)
    link, u_wit, lsign = linking_isometric(linking_form(l1), linking_form(l2))
    verdicts = (kreck, orbit, homot, link)
    assert len(set(verdicts)) == 1, dict(zip(CRITERIA, verdicts))
    certificates = (
        kreck_cert,
        orbit_cert,
        {"r": r_wit, "sign": sign_wit} if homot else None,
        {"unit": u_wit, "sign": lsign} if link else None,
    )
    return kreck, dict(zip(CRITERIA, verdicts)), dict(zip(CRITERIA, certificates))


# ---- helpers -----------------------------------------------------------------


def units(p):
    return [q for q in range(1, p) if math.gcd(q, p) == 1]


PAIRS = [(p, q1, q2) for p in range(2, 61) for q1 in units(p) for q2 in units(p)]


def expected():
    decisions = {}
    for p, q1, q2 in PAIRS:
        x = q2 * pow(q1, -1, p) % p
        if (p, x) not in decisions:
            decisions[p, x] = ref_lens_decision(p, x)
    return {(p, q1, q2): decisions[p, q2 * pow(q1, -1, p) % p] for p, q1, q2 in PAIRS}


def clear():
    classify._lens_modulus.cache_clear()


def answers(pairs):
    out = {}
    for p, q1, q2 in pairs:
        rep = classify_lens_family(p, q1, q2)
        assert (rep.p, rep.q1, rep.q2) == (p, q1, q2)
        out[p, q1, q2] = (rep.equivalent, rep.verdicts, rep.certificates)
    return out


# ---- the kept moduli against the reference ----------------------------------


def test_every_unit_pair_matches_the_per_pair_route():
    expect = expected()
    assert len(expect) == 30881
    verdicts = [eq for eq, _, _ in expect.values()]
    assert any(verdicts) and not all(verdicts)
    shuffled = list(PAIRS)
    random.Random(36).shuffle(shuffled)
    for order in (PAIRS, shuffled):
        clear()
        assert answers(order) == expect  # cold
        assert answers(order) == expect  # warm
    # warm in one order, asked in the other
    assert answers(PAIRS) == expect


def test_each_modulus_is_decided_once():
    clear()
    answers(PAIRS[:3889])
    moduli = {p for p, _, _ in PAIRS[:3889]}
    assert moduli == set(range(2, 31))
    info = classify._lens_modulus.cache_info()
    assert (info.misses, info.currsize) == (29, 29)
