"""The Kreck orbit search runs once per lens modulus.

ref_kreck_equivalent below is a frozen copy of kreck_equivalent as it was
before the breadth-first search moved into classify._orbit: one full
search per query.  The search must give the same verdict and the same
certificate (the first breadth-first discovery) on every query, asked
twice.  The reference is asked in both orders.  A walk from a start
class can be kept and resumed by later queries, so any order of
targeted queries, and a walk cut off by an exception mid-step, must read
the entries of a fresh full walk.  Every multiplier is
an automorphism of H_4, so the orbits are those of a finite group;
Burnside's lemma counts them with no search, and a record with any other
multiplier is refused.
"""

import importlib
import inspect
import itertools
import math
import pathlib
import pkgutil
import random
import re
import threading

import pytest

import fourfold
from fourfold import classify
from fourfold.classify import (
    ManifoldRecord,
    classify_lens_family,
    kreck_equivalent,
    lens_times_circle_record,
)
from fourfold.errors import HypothesisViolated, TypeMismatch, generator_budget
from fourfold.groupring import cyclic_group, laurent_extension, trivial_group
from fourfold.intmat import AbelianInvariants
from fourfold.manifolds import squares_mod


# ---- frozen reference: the per-query search as it was ----------------------


def ref_kreck_equivalent(m1, m2):
    """Same stable class over a fixed 1-type: orbit membership of the
    degree-4 classes under signed automorphism multipliers.

    Returns (bool, certificate); the certificate names the multiplier
    and sign that carry the first class to the second, or None.
    """
    if m1.group != m2.group or m1.w_signs != m2.w_signs:
        raise TypeMismatch("records carry different groups or characters")
    if m1.h4 != m2.h4:
        raise TypeMismatch("records disagree on the degree-4 homology")
    start = m1.class_h4
    target = m2.class_h4
    gens = tuple(dict.fromkeys(tuple(m1.aut_multipliers) + tuple(m2.aut_multipliers)))
    if not gens:
        gens = (1,)
    # A nonzero multiplier never shrinks a free coordinate, so a class whose
    # free part outgrows the target's can only lead to the zero class (met
    # at once through a zero multiplier); dropping it keeps the orbit finite.
    caps = [abs(x) for x in target[: m1.h4.free_rank]]
    seen = {start: (1, 1)}
    frontier = [start]
    while frontier:
        nxt = []
        for vec in frontier:
            mult, sign = seen[vec]
            for m in gens:
                cand = m1.reduce(tuple(m * x for x in vec))
                if cand not in seen and all(abs(x) <= c for x, c in zip(cand, caps)):
                    seen[cand] = (mult * m, sign)
                    nxt.append(cand)
            cand = m1.reduce(tuple(-x for x in vec))
            if cand not in seen:
                seen[cand] = (mult, -sign)
                nxt.append(cand)
        frontier = nxt
    if target in seen:
        mult, sign = seen[target]
        return True, {"multiplier": mult, "sign": sign}
    return False, None


# ---- helpers -----------------------------------------------------------------


def units(p):
    return [q for q in range(1, p) if math.gcd(q, p) == 1]


def assert_matches_reference(pairs):
    """Every pair agrees with the reference, asked twice."""
    expect = [ref_kreck_equivalent(a, b) for a, b in pairs]
    for _ in range(2):
        assert [kreck_equivalent(a, b) for a, b in pairs] == expect
    return expect


def trivial_record(h4, cls, mults):
    return ManifoldRecord(group=trivial_group(), w_signs=(), class_h4=cls, h4=h4, aut_multipliers=mults)


# ---- the search against the reference --------------------------------------


def test_every_lens_unit_pair_matches_reference_in_both_orders():
    pairs = []
    for p in range(2, 31):
        recs = [lens_times_circle_record(p, q) for q in units(p)]
        for i, a in enumerate(recs):
            for b in recs[i:]:
                pairs.append((a, b))
                pairs.append((b, a))
    expect = assert_matches_reference(pairs)
    assert any(eq for eq, _ in expect) and not all(eq for eq, _ in expect)


def test_random_records_match_reference():
    rng = random.Random(20261018)
    pairs = []
    for torsion in ((2,), (4,), (2, 4), (2, 2, 6), (12,), (3, 6)):
        for free in (0, 1, 2):
            h4 = AbelianInvariants(free, torsion)
            # the automorphisms in the pool: +-1 with a free part, the units mod the torsion otherwise
            pool = [m for m in (-1, 1, 3, 5, 7, 11, 13)
                    if math.gcd(m, torsion[-1]) == 1 and (not free or m in (1, -1))]
            for _ in range(12):
                cls = [tuple(rng.randint(-6, 6) for _ in range(free)) + tuple(rng.randrange(t) for t in torsion)
                       for _ in range(2)]
                m1 = tuple(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
                m2 = tuple(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
                a = trivial_record(h4, cls[0], m1)
                b = trivial_record(h4, cls[1], m2)
                # a target in the start's own orbit, so that some verdicts are True
                c = trivial_record(h4, tuple(x * rng.choice((1, -1, 2)) for x in cls[0]), m2)
                pairs += [(a, b), (b, a), (a, c), (c, a)]
    expect = assert_matches_reference(pairs)
    assert any(eq for eq, _ in expect) and not all(eq for eq, _ in expect)


def test_multipliers_differing_per_record_match_reference():
    rng = random.Random(6)
    pairs = []
    for h4, mult_sets in (
        (AbelianInvariants(1, (2, 4)), ((), (1,), (-1,), (1, -1), (-1, 1))),
        (AbelianInvariants(0, (2, 12)), ((), (5,), (7,), (11,), (5, 7), (-1, 5, 11), (7, 1))),
    ):
        classes = list(itertools.product(*([range(-3, 5)] * h4.free_rank + [range(t) for t in h4.torsion])))
        for m1 in mult_sets:
            for m2 in mult_sets:
                if m1 == m2:
                    continue
                for _ in range(6):
                    c1, c2 = rng.sample(classes, 2)
                    pairs.append((trivial_record(h4, c1, m1), trivial_record(h4, c2, m2)))
                    pairs.append((trivial_record(h4, c2, m2), trivial_record(h4, c1, m1)))
    expect = assert_matches_reference(pairs)
    assert any(eq for eq, _ in expect) and not all(eq for eq, _ in expect)
    assert [eq for eq, _ in expect[::2]] == [eq for eq, _ in expect[1::2]]
    # the non-unit sets these records once carried are refused
    h4 = AbelianInvariants(1, (2, 4))
    for mults in ((0,), (2,), (6,), (2, 6), (0, 2, 6), (3, 2), (6, 0, -1)):
        with pytest.raises(HypothesisViolated, match="is not an automorphism of Z \\+ Z/2 \\+ Z/4$"):
            trivial_record(h4, (1, 0, 1), mults)


def test_a_non_unit_multiplier_is_refused():
    # H_4(Z/4 x Z) = Z/4; multiplying by 2 would carry [1] to [2] and never back
    g = laurent_extension(cyclic_group(4), 1)
    h4 = AbelianInvariants(0, (4,))

    def rec(c, mults):
        return ManifoldRecord(group=g, w_signs=(1, 1), class_h4=(c,), h4=h4, aut_multipliers=mults)

    for mults in ((2,), (3, 2), (0,)):
        with pytest.raises(HypothesisViolated, match="multiplier %d is not an automorphism of Z/4$" % mults[-1]):
            rec(1, mults)
    # the unit 3 carries [1] to [3] and back, and fixes [2]
    expect = assert_matches_reference([(rec(1, (3,)), rec(3, (3,))), (rec(3, (3,)), rec(1, (3,))),
                                       (rec(1, (3,)), rec(2, (3,))), (rec(2, (3,)), rec(1, (3,)))])
    assert expect == [(True, {"multiplier": 3, "sign": 1})] * 2 + [(False, None)] * 2


def test_a_search_for_a_target_stops_with_the_full_search_entry():
    # a targeted search on a fresh walk returns at the target's first
    # discovery, so its verdict and certificate are a lookup in the full
    # orbit; each targeted search counted here starts its own walk
    rng = random.Random(27)
    cases = hits = stopped_early = 0
    for torsion in ((2,), (4,), (12,), (2, 4), (3, 6), (2, 2, 6)):
        for free in (0, 1, 2):
            h4 = AbelianInvariants(free, torsion)
            pool = [m for m in (-1, 1, 3, 5, 7, 11, 13)
                    if math.gcd(m, torsion[-1]) == 1 and (not free or m in (1, -1))]
            for _ in range(12):
                start, other = (tuple(rng.randint(-6, 6) for _ in range(free)) + tuple(rng.randrange(t) for t in torsion)
                                for _ in range(2))
                mults = tuple(tuple(rng.sample(pool, rng.randint(0, min(3, len(pool))))) for _ in range(2))
                full = classify._orbit(h4, start, mults)
                # a target in the orbit, one that may lie outside it, and the start itself
                for target in (rng.choice(sorted(full)), other, start):
                    walk = classify._start_walk(h4, start, mults)
                    assert classify._orbit(h4, start, mults, target, walk) == full.get(target)
                    stopped = walk.seen
                    assert set(stopped) <= set(full)
                    stopped_early += len(stopped) < len(full)
                    a = trivial_record(h4, start, mults[0])
                    b = trivial_record(h4, target, mults[1])
                    hit = full.get(target)
                    expect = (False, None) if hit is None else (True, {"multiplier": hit[0], "sign": hit[1]})
                    assert kreck_equivalent(a, b) == expect
                    cases += 1
                    hits += hit is not None
    assert cases == 6 * 3 * 12 * 3 and 0 < hits < cases and stopped_early > 0


def test_any_order_of_targeted_queries_reads_the_full_walk():
    # one kept walk, resumed by targets in a random order, some asked
    # twice and some outside the orbit, gives each the entry of a fresh
    # full walk; the walk is then complete and still gives them
    rng = random.Random(36)
    cases = 0
    for torsion in ((12,), (2, 4), (3, 6), (2, 2, 6), (29,), (443,)):
        for free in (0, 1):
            h4 = AbelianInvariants(free, torsion)
            pool = [m for m in (-1, 1, 3, 5, 7, 11, 13)
                    if math.gcd(m, torsion[-1]) == 1 and (not free or m in (1, -1))]
            classes = [tuple(rng.randint(-3, 3) for _ in range(free)) + tuple(rng.randrange(t) for t in torsion)
                       for _ in range(40)]
            for _ in range(3):
                start = rng.choice(classes)
                mults = tuple(tuple(rng.sample(pool, rng.randint(0, min(3, len(pool))))) for _ in range(2))
                full = classify._orbit(h4, start, mults)
                walk = classify._start_walk(h4, start, mults)
                targets = rng.sample(sorted(full), min(8, len(full))) + rng.sample(classes, 8)
                targets += rng.sample(targets, 4)
                for target in targets:
                    assert classify._orbit(h4, start, mults, target, walk) == full.get(target)
                    a = trivial_record(h4, start, mults[0])
                    b = trivial_record(h4, target, mults[1])
                    hit = full.get(target)
                    expect = (False, None) if hit is None else (True, {"multiplier": hit[0], "sign": hit[1]})
                    assert kreck_equivalent(a, b, walk=walk) == kreck_equivalent(a, b) == expect
                assert classify._orbit(h4, start, mults, None, walk) == full
                cases += 1
    assert cases == 6 * 2 * 3


def test_a_full_orbit_is_a_copy_of_the_kept_walk():
    # 2 has order 28 mod 29, so the orbit of 1 is every unit, each entry
    # that of the class it was met from times the move that met it
    h4 = AbelianInvariants(0, (29,))
    mults = ((2, 5), ())
    walk = classify._start_walk(h4, (1,), mults)
    assert classify._orbit(h4, (1,), mults, (16,), walk) == (16, 1)
    full = classify._orbit(h4, (1,), mults, None, walk)
    assert full is not walk.seen and set(full) == set(walk.seen) and len(full) == 28
    assert all(mult * sign % 29 == cls[0] for cls, (mult, sign) in full.items())
    assert all(walk.entry(cls) == entry for cls, entry in full.items())
    kept = dict(full)
    full.clear()
    again = classify._orbit(h4, (1,), mults, None, walk)
    assert again == kept and again is not full and again is not walk.seen
    assert classify._orbit(h4, (1,), mults) == kept


class Interrupt(BaseException):
    """Stands for a KeyboardInterrupt or a timeout raised in a step."""


class CutSeen(dict):
    """A seen dict whose n-th new entry raises Interrupt, before or after
    the entry is made: a step cut off at its most fragile point, a class
    in order but not yet (or just) in seen."""

    def __init__(self, seen, n, after):
        super().__init__(seen)
        self.n, self.after = n, after

    def __setitem__(self, key, value):
        self.n -= 1
        if self.n == 0 and not self.after:
            raise Interrupt
        super().__setitem__(key, value)
        if self.n == 0:
            raise Interrupt


def test_a_walk_cut_off_mid_step_resumes_where_it_stood():
    # an exception thrown into a kept walk at any step leaves it a walk
    # that later queries resume: every target, asked after the cut in a
    # random order, reads the entry of a fresh full walk
    rng = random.Random(37)
    cases = cuts = 0
    # a free coordinate admits only the multipliers +-1
    for torsion, free, mults in (((29,), 0, ((2, 5), ())), ((2, 6), 1, ((-1,), ())),
                                 ((3, 42), 0, ((5, 11), (13,))), ((443,), 0, (squares_mod(443),) * 2)):
        h4 = AbelianInvariants(free, torsion)
        start = (1,) * free + tuple(1 % t for t in torsion)
        full = classify._orbit(h4, start, mults)
        cuts += 2 * min(12, len(full) - 1)
        for n in sorted(rng.sample(range(1, len(full)), min(12, len(full) - 1))):
            for after in (False, True):
                walk = classify._start_walk(h4, start, mults)
                walk.seen = CutSeen(walk.seen, n, after)
                with pytest.raises(Interrupt):
                    walk.orbit()
                targets = list(full) + [tuple(-1 for _ in start)]
                rng.shuffle(targets)
                assert [walk.entry(t) for t in targets] == [full.get(t) for t in targets]
                assert classify._orbit(h4, start, mults, None, walk) == full
                cases += 1
    assert cases == cuts == 2 * (12 + 1 + 11 + 12)


def test_threads_share_one_walk():
    # queries from several threads, each walking the kept walk of Z/443
    # to its own targets, read the entries of a fresh full walk
    mults = (squares_mod(443),) * 2
    h4 = AbelianInvariants(0, (443,))
    full = classify._orbit(h4, (1,), mults)
    walk = classify._start_walk(h4, (1,), mults)
    targets = sorted(full)
    random.Random(38).shuffle(targets)
    got = {}

    def ask(part):
        for target in part:
            got[target] = walk.entry(target)

    threads = [threading.Thread(target=ask, args=(targets[i::4],)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == full and classify._orbit(h4, (1,), mults, None, walk) == full


def test_a_cold_lens_query_stops_the_walk_at_its_target():
    # 4 is a square mod 443, so the class 4^-1 of L(443, 4) is met on the
    # first level of the walk from 1: at most |squares| + 2 discoveries of
    # the 442 classes of the orbit
    classify._lens_modulus.cache_clear()
    assert classify_lens_family(443, 1, 4).equivalent
    record = lens_times_circle_record(443, 1)
    mults = (record.aut_multipliers,) * 2
    walk = classify._lens_modulus(443, generator_budget()).walk
    assert classify._lens_modulus.cache_info().misses == 1
    squares = len(squares_mod(443))
    assert squares == 221
    assert len(walk.order) - 1 <= squares + 2
    assert len(classify._orbit(record.h4, record.class_h4, mults, None, walk)) == 442


# ---- an orbit count that shares no code with the search ----------------------


def burnside_orbit_count(torsion, mults):
    """Orbits of G = <mults, -1> acting on Z/t_1 + ... by multiplication:
    the average over G of its fixed points, prod gcd(g - 1, t_i) each."""
    n = math.lcm(*torsion)
    group, frontier = {1 % n}, [1 % n]
    while frontier:
        frontier = [x * m % n for x in frontier for m in mults + (-1,) if x * m % n not in group]
        group.update(frontier)
    fixed = sum(math.prod(math.gcd(g - 1, t) for t in torsion) for g in group)
    assert fixed % len(group) == 0
    return fixed // len(group)


def test_orbit_partition_matches_burnside_count():
    rng = random.Random(24)
    cases = 0
    for t2 in range(2, 13):
        for t1 in [1] + [d for d in range(2, t2 + 1) if t2 % d == 0]:
            torsion = (t2,) if t1 == 1 else (t1, t2)
            h4 = AbelianInvariants(0, torsion)
            units = [u for u in range(1, t2) if math.gcd(u, t2) == 1]
            classes = list(itertools.product(*(range(t) for t in torsion)))
            for _ in range(4):
                mults = tuple(rng.sample(units, rng.randint(0, min(3, len(units)))))
                orbits = {}
                for cls in classes:
                    orbits[cls] = frozenset(classify._orbit(h4, cls, (mults, mults)))
                # each member's orbit is the same set, so the orbits partition H_4
                assert all(orbits[x] == orbit for orbit in orbits.values() for x in orbit)
                assert len(set(orbits.values())) == burnside_orbit_count(torsion, mults), (torsion, mults)
                recs = [trivial_record(h4, cls, mults) for cls in classes]
                for a, b in (rng.sample(recs, 2) for _ in range(20)):
                    assert kreck_equivalent(a, b)[0] == kreck_equivalent(b, a)[0] == (b.class_h4 in orbits[a.class_h4])
                cases += 1
    assert cases == 4 * 34


# ---- the mechanism: one walk per modulus, one decision per (p, q2 / q1) ------


def count_searches(monkeypatch):
    calls = []
    search = classify._orbit

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(classify, "_orbit", counted)
    return calls


def test_lens_family_searches_once_per_start_class(monkeypatch):
    # the 36 pairs over p = 7 have 6 ratios q2 / q1, each decided once as
    # (1, q2 / q1) by one kept modulus, whose one walk from the class 1
    # each decision resumes
    searches = count_searches(monkeypatch)
    classify._lens_modulus.cache_clear()
    qs = units(7)
    for q1 in qs:
        for q2 in qs:
            classify_lens_family(7, q1, q2)
    assert len(qs) ** 2 == 36
    assert classify._lens_modulus.cache_info().misses == 1
    modulus = classify._lens_modulus(7, generator_budget())
    assert len(modulus.decisions) == 6
    assert len(searches) == 6
    assert {args[1] for args in searches} == {(1,)}
    assert all(args[4] is modulus.walk for args in searches)


def test_lens_record_is_shared_by_equal_classes(monkeypatch):
    # q and q + p name the same lens class, so they have equal records and
    # share one decision
    assert lens_times_circle_record(7, 3) == lens_times_circle_record(7, 10)
    searches = count_searches(monkeypatch)
    classify._lens_modulus.cache_clear()
    assert classify_lens_family(7, 3, 5).certificates == classify_lens_family(7, 10, 5).certificates
    assert classify._lens_modulus.cache_info()[:2] == (1, 1)
    assert len(classify._lens_modulus(7, generator_budget()).decisions) == 1
    assert len(searches) == 1


def _lru_caches():
    """Every lru_cache of the package, as module.name, with its maxsize."""
    found = {}
    for info in pkgutil.iter_modules(fourfold.__path__):
        module = importlib.import_module("fourfold." + info.name)
        owners = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
        for owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_parameters"):
                    found["%s.%s" % (info.name, name)] = value.cache_parameters()["maxsize"]
    return found


def test_every_lru_cache_is_bounded():
    found = _lru_caches()
    # the exact set: a new cache is named here before it lands
    assert set(found) == {
        "classify._lens_modulus",
        "homology._resolution",
        "groupring._get_descriptor",
        "groupring._element_table",
        "cli._parser",
        "cli._complex_document",
        "cli._matrix_document",
        "errors._session_budget",
    }
    assert all(size is not None for size in found.values()), found


def test_the_readme_cache_table_names_every_cache():
    # README's table of hits and misses has one row per cache of computed
    # results: every cache but the parser's and the session budget's
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+\.\w+)` \|", readme, re.M)
    assert sorted(rows) == sorted(set(_lru_caches()) - {"cli._parser", "errors._session_budget"})
