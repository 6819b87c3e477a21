"""Stable classification decisions for closed 4-manifolds.

Everything funnels into a small set of comparisons: the degree-4 twisted
group homology class of the classifying map up to signed automorphism
orbits, the lens-family criteria (which must all agree and are checked
against each other), the aspherical route through torsion of the twisted
quotient of pi_2, and the order bookkeeping of the low-degree exact
sequence linking manifold homology to group homology.
"""

import functools

from fourfold.complexes import homology_Zw
from fourfold.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DimensionMismatch,
    HypothesisViolated,
    InfiniteGroup,
    TypeMismatch,
)
from fourfold.extensions import EmFamily, fpmodule_homology, recover_m
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    laurent_extension,
)
from fourfold.homology import (
    generator_budget,
    group_homology,
    module_homology,
    resolution_for,
)
from fourfold.intmat import (
    AbelianInvariants,
    IntMatrix,
    induced_map_invariants,
    kernel_basis,
    smith_normal_form,  # unused here: perfbench checks that its tracer rebinds this alias
)
from fourfold.manifolds import (
    LensSpace,
    fundamental_class_invariant,
    lens_homotopy_equivalent,
    linking_form,
    linking_isometric,
    units_mod,
)
from fourfold.values import FrozenValue, Value

__all__ = [
    "ManifoldRecord",
    "lens_times_circle_record",
    "bordism_group",
    "kreck_equivalent",
    "classify_lens_family",
    "LensFamilyReport",
    "classify_aspherical",
    "aspherical_equivalent",
    "hopf_check",
    "HopfReport",
]


class ManifoldRecord(FrozenValue):
    """What the stable classification needs from one manifold.

    class_h4 is a coordinate tuple for an element of the degree-4
    twisted homology of the group; h4 gives that group's invariants so
    coordinates can be reduced.  aut_multipliers lists the integers that
    act on the class by coordinatewise multiplication (the orbit is
    closed under products and global sign).
    """

    __slots__ = ("group", "w_signs", "class_h4", "h4", "aut_multipliers")

    def __init__(self, group, w_signs, class_h4, h4, aut_multipliers=()):
        vec = tuple(int(x) for x in class_h4)
        if len(vec) != h4.free_rank + len(h4.torsion):
            raise DimensionMismatch(
                "class has %d coordinates, homology needs %d"
                % (len(vec), h4.free_rank + len(h4.torsion))
            )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "w_signs", w_signs)
        object.__setattr__(self, "h4", h4)
        object.__setattr__(self, "class_h4", self.reduce(vec))
        object.__setattr__(self, "aut_multipliers", aut_multipliers)

    @classmethod
    def over(cls, group, w_signs, class_h4, aut_multipliers=None):
        """The record of class_h4 over group with character w_signs: h4 is
        group_homology in degree 4, and aut_multipliers defaults to
        default_aut_multipliers(group).  Every record the package builds
        comes from here; the constructor itself also takes a given h4."""
        return cls(
            group=group,
            w_signs=w_signs,
            class_h4=class_h4,
            h4=group_homology(group, char_from_signs(group, w_signs), 4),
            aut_multipliers=default_aut_multipliers(group) if aut_multipliers is None else aut_multipliers,
        )

    def reduce(self, vec):
        """Torsion coordinates mod their orders; vec is a tuple of ints of
        the class's length (checked once, in __init__)."""
        k = self.h4.free_rank
        return vec[:k] + tuple(x % t for x, t in zip(vec[k:], self.h4.torsion))


def squares_mod(n):
    """The multiplicative squares of units mod n, the built-in orbit
    generators for cyclic degree-4 homology."""
    if n <= 1:
        return (1,)
    return tuple(sorted({r * r % n for r in units_mod(n)}))


def default_aut_multipliers(group):
    """The orbit generators of a record that names none: the squares of
    units mod n over Z/n and Z/n x Z, and the identity (1,) otherwise."""
    if len(group.orders) == 1 and group.laurent_rank in (0, 1):
        return squares_mod(group.orders[0])
    return (1,)


# An entry is one record: a few short tuples over a group descriptor and
# homology invariants that are shared, well under a kilobyte, so 1024
# records stay under a megabyte.
_RECORD_CACHE_SIZE = 1024


def lens_times_circle_record(p, q):
    """Record for the circle product of a lens space.

    The group is Z/p x Z, the character is trivial, the degree-4 class
    is the standard invariant q^{-1} mod p, and the automorphism orbit
    is by signed squares of units.  The record depends on p and that
    class only, and is built once per pair for the process.
    """
    return _lens_times_circle_record(p, fundamental_class_invariant(LensSpace(p, q)))


@functools.lru_cache(maxsize=_RECORD_CACHE_SIZE)
def _lens_times_circle_record(p, invariant):
    g = laurent_extension(cyclic_group(p), 1)
    return ManifoldRecord.over(g, (1,) * g.ngens, (invariant,))


def bordism_group(group, w):
    """Stable bordism over a 1-type: the pair (wall piece, degree-4 piece).

    The first factor is Z for trivial character and Z/2 otherwise; the
    second is the degree-4 twisted homology of the group.
    """
    stable = AbelianInvariants(1, ()) if w.is_trivial else AbelianInvariants(0, (2,))
    return stable, group_homology(group, w, 4)


def kreck_equivalent(m1, m2):
    """Same stable class over a fixed 1-type: orbit membership of the
    degree-4 classes under signed automorphism multipliers.

    Returns (bool, certificate); the certificate names the multiplier
    and sign that carry the first class to the second, or None.  It is
    the first breadth-first discovery of the second class from the
    first, so reachability is directed: a non-unit multiplier can carry
    one class to another and not back.  The search from a start class
    reads only the target's free coordinates, so it is memoised per
    process in a bounded cache and each query is one lookup.
    """
    if m1.group != m2.group or m1.w_signs != m2.w_signs:
        raise TypeMismatch("records carry different groups or characters")
    if m1.h4 != m2.h4:
        raise TypeMismatch("records disagree on the degree-4 homology")
    target = m2.class_h4
    gens = tuple(dict.fromkeys(tuple(m1.aut_multipliers) + tuple(m2.aut_multipliers))) or (1,)
    caps = tuple(abs(x) for x in target[: m1.h4.free_rank])
    hit = _orbit(m1.h4, m1.class_h4, gens, caps).get(target)
    if hit is None:
        return False, None
    mult, sign = hit
    return True, {"multiplier": mult, "sign": sign}


# An entry is one orbit: at most |H_4| classes when H_4 is finite (with a
# free part, those whose free coordinates lie within caps), each a short
# tuple mapped to a (multiplier, sign) pair, 170-200 bytes a class
# (tracemalloc).  The 277 start classes of a lens-family sweep over
# p <= 30 all fit: their orbits hold 2673 classes in 0.45 MB, 1.6 kB an
# orbit.  512 orbits of up to 1000 classes take about 100 MB at most.
_ORBIT_CACHE_SIZE = 512


@functools.lru_cache(maxsize=_ORBIT_CACHE_SIZE)
def _orbit(h4, start, gens, caps):
    """Every class reachable from start by the multipliers gens and the
    global sign, breadth-first, each mapped to the (multiplier, sign) of
    its first discovery.  The returned dict is shared; do not mutate it."""
    # A nonzero multiplier never shrinks a free coordinate, so a class whose
    # free part outgrows the caps (the target's) can only lead to the zero
    # class (met at once through a zero multiplier); dropping it keeps the
    # orbit finite; with no free part there is nothing to cap.  Each
    # candidate is built in one pass over the coordinates: free ones
    # scaled, torsion ones scaled and reduced.  Each candidate class is
    # met at most once and tries every multiplier and the sign, which is
    # the charge against the generator budget.
    classes = 1
    for c in caps:
        classes *= 2 * c + 1
    for t in h4.torsion:
        classes *= t
    budget = generator_budget()
    if classes * (len(gens) + 1) > budget:
        raise BudgetExceeded(
            "orbit search needs %d classes x %d moves, budget %d" % (classes, len(gens) + 1, budget)
        )
    k = h4.free_rank
    mods = (None,) * k + h4.torsion
    seen = {start: (1, 1)}
    frontier = [start]
    while frontier:
        nxt = []
        for vec in frontier:
            mult, sign = seen[vec]
            for m in gens:
                cand = tuple([m * x if t is None else m * x % t for x, t in zip(vec, mods)])
                if cand in seen or (k and any(abs(x) > c for x, c in zip(cand, caps))):
                    continue
                seen[cand] = (mult * m, sign)
                nxt.append(cand)
            cand = tuple([-x if t is None else -x % t for x, t in zip(vec, mods)])
            if cand not in seen:
                seen[cand] = (mult, -sign)
                nxt.append(cand)
        frontier = nxt
    return seen


def classify_lens_family(p, q1, q2):
    """All computable equivalence criteria for a pair of circle products
    of lens spaces, with the agreement assertion built in.

    Criteria: the orbit comparison of the degree-4 records, the signed
    square relation on the standard invariant, homotopy equivalence of
    the lens spaces, and isometry of their linking forms.  The verdicts
    must agree; a split raises AssertionError.
    """
    l1, l2 = LensSpace(p, q1), LensSpace(p, q2)
    inv1 = fundamental_class_invariant(l1)
    inv2 = fundamental_class_invariant(l2)
    kreck, kreck_cert = kreck_equivalent(
        _lens_times_circle_record(p, inv1), _lens_times_circle_record(p, inv2)
    )

    orbit, orbit_cert = _signed_square_relation(p, inv1, inv2)

    homot, r_wit, sign_wit = lens_homotopy_equivalent(p, q1, q2)
    homot_cert = {"r": r_wit, "sign": sign_wit} if homot else None

    link, u_wit, lsign = linking_isometric(linking_form(l1), linking_form(l2))
    link_cert = {"unit": u_wit, "sign": lsign} if link else None

    verdicts = {
        "kreck_orbit": kreck,
        "class_square_orbit": orbit,
        "lens_homotopy": homot,
        "linking_form": link,
    }
    if len(set(verdicts.values())) != 1:
        raise AssertionError("criteria disagree: %r" % verdicts)
    return LensFamilyReport(
        p=p,
        q1=q1,
        q2=q2,
        equivalent=kreck,
        verdicts=verdicts,
        certificates={
            "kreck_orbit": kreck_cert,
            "class_square_orbit": orbit_cert,
            "lens_homotopy": homot_cert,
            "linking_form": link_cert,
        },
    )


def _signed_square_relation(p, a, b):
    """Is b = +-r^2 a mod p for some unit r?  Returns (bool, cert)."""
    for r in units_mod(p):
        if (r * r * a - b) % p == 0:
            return True, {"r": r, "sign": 1}
        if (r * r * a + b) % p == 0:
            return True, {"r": r, "sign": -1}
    return False, None


class LensFamilyReport(Value):
    __slots__ = ("p", "q1", "q2", "equivalent", "verdicts", "certificates")

    def __init__(self, p, q1, q2, equivalent, verdicts, certificates):
        self.p = p
        self.q1 = q1
        self.q2 = q2
        self.equivalent = equivalent
        self.verdicts = verdicts
        self.certificates = certificates


def classify_aspherical(d3_aug, inv):
    """Candidate absolute twisting numbers from observed invariants.

    d3_aug presents the family; inv is the observed abelian group of the
    twisted quotient of pi_2.  Delegates to the torsion matcher; the
    returned set is {|m|}, the ambiguous {0, 1}, or empty.
    """
    fam = EmFamily.from_matrix(d3_aug)
    return recover_m(inv, fam)


def aspherical_equivalent(d3_aug, inv1, inv2, proj1=None, proj2=None):
    """Same stable class over an aspherical 1-type.

    Candidate sets must be equal singletons, or both the ambiguous
    {0, 1} with matching externally supplied projectivity flags.
    """
    s1 = classify_aspherical(d3_aug, inv1)
    s2 = classify_aspherical(d3_aug, inv2)
    if not s1 or not s2:
        raise HypothesisViolated("observed invariants fit no twisting number")
    if s1 != s2:
        return False, {"candidates": (sorted(s1), sorted(s2))}
    if len(s1) == 1:
        return True, {"m": next(iter(s1))}
    if proj1 is None or proj2 is None:
        raise HypothesisViolated(
            "ambiguous {0,1} case needs projectivity flags to decide"
        )
    same = bool(proj1) == bool(proj2)
    return same, {"candidates": sorted(s1), "projectivity": (bool(proj1), bool(proj2))}


class HopfReport(Value):
    """Order bookkeeping for the low-degree exact sequence of a closed
    4-complex over a finite group.

    groups maps labels to invariants; checks maps check names to bools;
    notes carries skipped checks (infinite groups make some divisibility
    statements empty).
    """

    __slots__ = ("groups", "checks", "maps", "notes")

    def __init__(self, groups, checks, maps, notes=None):
        self.groups = groups
        self.checks = checks
        self.maps = maps
        self.notes = [] if notes is None else notes

    @property
    def passed(self):
        return all(self.checks.values())


def hopf_check(c):
    """Verify the order bookkeeping of the sequence tying a closed
    4-complex to its group: surjectivity at the bottom and divisibility
    of kernel and cokernel orders against the flanking coefficient
    groups.
    """
    group = c.group
    if not group.is_finite:
        raise InfiniteGroup("the sequence check needs a finite group")
    if c.top_degree < 4:
        raise DegreeOutOfRange(
            "the sequence check needs a 4-complex, got top degree %d" % c.top_degree
        )
    w = c.w
    res = resolution_for(group)
    cmap = _chain_map_to_resolution(c, res)
    pi2_mod = fpmodule_homology(c.d(2), c.d(3))

    groups = {
        "H4_M": homology_Zw(c, 4),
        "H4_pi": group_homology(group, w, 4),
        "H1_pi_pi2": module_homology(res, w, pi2_mod, 1),
        "H3_M": homology_Zw(c, 3),
        "H3_pi": group_homology(group, w, 3),
        "H0_pi_pi2": module_homology(res, w, pi2_mod, 0),
        "H2_M": homology_Zw(c, 2),
        "H2_pi": group_homology(group, w, 2),
    }

    maps = {}
    for deg in (2, 3, 4):
        maps[deg] = _induced_on_homology(c, res, cmap, deg)

    checks = {}
    notes = []
    checks["H2_surjective"] = maps[2].surjective
    _divides(checks, notes, "coker4_divides_H1pi", maps[4].cokernel, groups["H1_pi_pi2"])
    _divides(checks, notes, "ker3_divides_H1pi", maps[3].kernel, groups["H1_pi_pi2"])
    _divides(checks, notes, "coker3_divides_H0pi", maps[3].cokernel, groups["H0_pi_pi2"])
    _divides(checks, notes, "ker2_divides_H0pi", maps[2].kernel, groups["H0_pi_pi2"])
    if groups["H1_pi_pi2"].is_trivial:
        # with nothing to land in, the degree-4 map must be onto
        checks["H4_surjective"] = maps[4].surjective
    return HopfReport(groups=groups, checks=checks, maps=maps, notes=notes)


def _divides(checks, notes, name, small, big):
    bo = big.order()
    if bo is None:
        notes.append("%s: skipped, comparison group infinite" % name)
        return
    so = small.order()
    if so is None:
        checks[name] = False
        notes.append("%s: finite group cannot bound an infinite piece" % name)
        return
    checks[name] = bo % so == 0


def _chain_map_to_resolution(c, res):
    """Lift the identity of Z to a chain map from the complex into the
    resolution, one degree at a time by solving over the ring."""
    group = c.group
    if c.ranks[0] != 1:
        raise DimensionMismatch("complex needs a single generator in degree 0")
    cmap = {0: RingMatrix.identity(group, 1)}
    top = min(c.top_degree, res.top_degree - 1)
    for i in range(1, top + 1):
        cmap[i] = res.d(i).solve(cmap[i - 1] * c.d(i))
        if cmap[i] is None:
            raise HypothesisViolated(
                "no chain lift in degree %d; resolution not exact there" % i
            )
    return cmap


def _induced_on_homology(c, res, cmap, deg):
    """Induced map on degree-deg twisted homology, as subquotient data."""
    w = c.w
    z1 = kernel_basis(c.d(deg).augment(w))
    if deg + 1 <= c.top_degree:
        b1 = c.d(deg + 1).augment(w)
    else:
        b1 = IntMatrix.zeros(c.ranks[deg], 0)
    z2 = kernel_basis(res.d(deg).augment(w))
    b2 = res.d(deg + 1).augment(w)
    amap = cmap[deg].augment(w)
    return induced_map_invariants(amap, z1, b1, z2, b2)
