"""Stable classification decisions for closed 4-manifolds.

Everything funnels into a small set of comparisons: the degree-4 twisted
group homology class of the classifying map up to signed automorphism
orbits, the lens-family criteria (which must all agree and are checked
against each other), the aspherical route through torsion of the twisted
quotient of pi_2, and the order bookkeeping of the low-degree exact
sequence linking manifold homology to group homology.
"""

import functools
import math
import threading

from fourfold.complexes import homology_Zw
from fourfold.errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    HypothesisViolated,
    InfiniteGroup,
    TypeMismatch,
    charge,
    generator_budget,
)
from fourfold.extensions import EmFamily, fpmodule_homology, recover_m
from fourfold.groupring import (
    RingMatrix,
    char_from_signs,
    cyclic_group,
    laurent_extension,
)
from fourfold.homology import (
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
    square_walk,
    squares_mod,
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
    closed under products and global sign); each must be an automorphism
    of h4 = Z^f + sum Z/t_i, prime to every t_i and +-1 when f > 0.
    w_signs and aut_multipliers are kept as tuples (a tuple as itself).
    """

    __slots__ = ("group", "w_signs", "class_h4", "h4", "aut_multipliers")

    def __init__(self, group, w_signs, class_h4, h4, aut_multipliers=()):
        vec = tuple(int(x) for x in class_h4)
        if len(vec) != h4.free_rank + len(h4.torsion):
            raise DimensionMismatch(
                "class has %d coordinates, homology needs %d"
                % (len(vec), h4.free_rank + len(h4.torsion))
            )
        aut_multipliers = tuple(aut_multipliers)
        # the torsion orders form a divisibility chain, so the last is their lcm
        n = h4.torsion[-1] if h4.torsion else 1
        for m in aut_multipliers:
            if math.gcd(m, n) != 1 or (h4.free_rank and m not in (1, -1)):
                raise HypothesisViolated("multiplier %d is not an automorphism of %s" % (m, h4))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "w_signs", tuple(w_signs))
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


def default_aut_multipliers(group):
    """The orbit generators of a record that names none: the squares of
    units mod n over Z/n and Z/n x Z, and the identity (1,) otherwise.
    Each is an automorphism of H_4."""
    if len(group.orders) == 1 and group.laurent_rank in (0, 1):
        return squares_mod(group.orders[0])
    return (1,)


def lens_times_circle_record(p, q):
    """Record for the circle product of a lens space.

    The group is Z/p x Z, the character is trivial, the degree-4 class
    is the standard invariant q^{-1} mod p, and the automorphism orbit
    is by signed squares of units.
    """
    g = laurent_extension(cyclic_group(p), 1)
    return ManifoldRecord.over(g, (1,) * g.ngens, (fundamental_class_invariant(LensSpace(p, q)),))


def bordism_group(group, w):
    """Stable bordism over a 1-type: the pair (wall piece, degree-4 piece).

    The first factor is Z for trivial character and Z/2 otherwise; the
    second is the degree-4 twisted homology of the group.
    """
    stable = AbelianInvariants(1, ()) if w.is_trivial else AbelianInvariants(0, (2,))
    return stable, group_homology(group, w, 4)


def kreck_equivalent(m1, m2, walk=None):
    """Same stable class over a fixed 1-type: orbit membership of the
    degree-4 classes under signed automorphism multipliers.

    Returns (bool, certificate); the certificate names the multiplier
    and sign that carry the first class to the second, or None.  It is
    the first breadth-first discovery of the second class from the
    first, its multiplier reduced modulo the last torsion order of H_4
    with its sign kept.  Every multiplier is an automorphism of H_4, so
    the orbit is the orbit of a group and the verdict is symmetric.  A
    query walks the orbit from the first class, charged in full when the
    walk is built, and stops once the second class is discovered; it
    keeps nothing.  walk, when given, is a kept _OrbitWalk from the first
    class under the multipliers of both records (the lens family passes
    the one each modulus keeps): the query resumes it instead, so a
    later query from the same class walks only the classes not yet met.
    """
    if m1.group != m2.group or m1.w_signs != m2.w_signs:
        raise TypeMismatch("records carry different groups or characters")
    if m1.h4 != m2.h4:
        raise TypeMismatch("records disagree on the degree-4 homology")
    walk = walk or _OrbitWalk(m1.h4, m1.class_h4, (m1.aut_multipliers, m2.aut_multipliers))
    hit = walk.entry(m2.class_h4)
    if hit is None:
        return False, None
    mult, sign = hit
    return True, {"multiplier": mult, "sign": sign}


class _OrbitWalk:
    """One breadth-first walk of the orbit of start under the multipliers
    of the pair of records mults and the global sign, resumed where the
    last query stopped.

    seen maps every class met so far to the move of its first discovery:
    the class it was met from and the multiplier, or None for the sign;
    the start maps to (None, None).  order lists the classes in the
    order of their discovery, and order[head] is the next to expand.  An
    entry (multiplier, sign) is read back along the moves, so a walk
    keeps small integers only.  The product of the multipliers is reduced
    modulo lcm, the last torsion order of H_4, keeping its sign, so a
    product below lcm in absolute value is the product itself and the
    reduction of a product does not depend on the order of its factors
    (lcm is 0 with a free part, where every multiplier is +-1).

    Every step can be taken twice: a class joins order before seen, and
    head moves on only after its class is expanded, so a walk cut off
    mid-step by an exception (an interrupt, a timeout) resumes where it
    stood.  Expanding a class again skips the classes it already met,
    and a class listed twice expands to nothing new.  The lock lets one
    thread at a time take steps.
    """

    __slots__ = ("seen", "order", "head", "moves", "mods", "lcm", "lock")

    def __init__(self, h4, start, mults):
        gens = tuple(dict.fromkeys(mults[0] + mults[1])) or (1,)
        # Every multiplier is an automorphism, so the free coordinates keep
        # their absolute values: the orbit has at most (2 if free else 1) x
        # |torsion| classes, each met once, trying every multiplier and the
        # sign.  That is the charge against the generator budget, made
        # before the walk takes a step, so a walk that exists is one that
        # the budget in force admitted.
        classes = 2 if h4.free_rank else 1
        for t in h4.torsion:
            classes *= t
        moves = len(gens) + 1
        charge(classes * moves, "orbit search needs %s classes x %s moves", classes, moves)
        self.seen = {start: (None, None)}
        self.order = [start]
        self.head = 0
        self.moves = gens + (None,)
        self.mods = (None,) * h4.free_rank + h4.torsion
        self.lcm = 0 if h4.free_rank or not h4.torsion else h4.torsion[-1]
        self.lock = threading.Lock()

    def entry(self, target):
        """The (multiplier, sign) of the target's first discovery, walking
        on only until it is met; None when it lies outside the orbit."""
        seen, lcm = self.seen, self.lcm
        with self.lock:
            if target not in seen and not self._walk_to(target):
                return None
            mult, sign = 1, 1
            parent, m = seen[target]
            while parent is not None:
                if m is None:
                    sign = -sign
                else:
                    mult *= m
                    if lcm and not -lcm < mult < lcm:
                        mult = mult % lcm if mult > 0 else -(-mult % lcm)
                parent, m = seen[parent]
        return mult, sign

    def _walk_to(self, target):
        """Step on until target is discovered (True) or the orbit is
        exhausted (False); no class is None, so None walks the orbit."""
        seen, order, mods = self.seen, self.order, self.mods
        while self.head < len(order):
            vec = order[self.head]
            for m in self.moves:
                if m is None:
                    cand = tuple([-x if t is None else -x % t for x, t in zip(vec, mods)])
                else:
                    cand = tuple([m * x if t is None else m * x % t for x, t in zip(vec, mods)])
                if cand not in seen:
                    order.append(cand)
                    seen[cand] = (vec, m)
                    if cand == target:
                        return True
            self.head += 1
        return False


_CRITERIA = ("kreck_orbit", "class_square_orbit", "lens_homotopy", "linking_form")


def classify_lens_family(p, q1, q2):
    """All computable equivalence criteria for a pair of circle products
    of lens spaces, with the agreement assertion built in.

    Criteria: the orbit comparison of the degree-4 records, the signed
    square relation on the standard invariant, homotopy equivalence of
    the lens spaces, and isometry of their linking forms.  The verdicts
    must agree; a split raises AssertionError.  Every verdict and
    certificate depends on p and x = q2 q1^-1 mod p only, so the pair
    is decided as (1, x) by the kept state of the modulus,
    _lens_modulus(p, budget), which decides each x once; each call gets
    fresh dicts.
    """
    if p < 2 or math.gcd(p, q1) != 1 or math.gcd(p, q2) != 1:
        # LensSpace raises InvalidLens with the message for the bad one
        LensSpace(p, q1)
        LensSpace(p, q2)
    modulus = _lens_modulus(p, generator_budget())
    x = q2 * pow(q1, -1, p) % p
    equivalent, kreck, orbit, homot, link = modulus.decisions.get(x) or modulus.decide(x)
    verdicts = dict.fromkeys(_CRITERIA, equivalent)
    if equivalent:
        certificates = {"kreck_orbit": kreck.copy(), "class_square_orbit": orbit.copy(),
                        "lens_homotopy": homot.copy(), "linking_form": link.copy()}
    else:
        certificates = dict.fromkeys(_CRITERIA)
    return LensFamilyReport(p, q1, q2, equivalent, verdicts, certificates)


# A kept modulus holds its record, a witness table of at most p - 1
# residues and one decision a ratio asked, about 1 kB a unit when every
# ratio is decided (tracemalloc: 15 kB for the 28 ratios of p = 29,
# 0.44 MB for the 442 of p = 443, each an equivalence that keeps four
# certificate dicts; its walk is kept apart, above).  The worst case at
# the default budget of 100000 is about 0.5 MB: an admitted modulus has
# p x (squares + 1) <= 100000, so at most about 450 equivalent ratios,
# and p = 443 has 442.  32 moduli stay under 17 MB, and the 29 moduli of
# the sweep of p <= 30 all fit.
_MODULUS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_MODULUS_CACHE_SIZE)
def _lens_modulus(p, budget):
    """The kept state of the lens modulus p under the budget in force.
    The budget is a key argument only: every charge is made while the
    state is built, so a refused modulus is not kept and a kept one is
    one that this budget admitted; another budget builds anew."""
    return _LensModulus(p)


class _LensModulus:
    """What the lens family keeps of one modulus p: the record of
    L(p,1) x S^1, the witness table of the unit walk mod p, and the
    decision of every ratio x asked so far, each resuming one orbit walk
    from the record's class.

    The constructor makes every charge before the state is kept: the
    resolution's norm element, through the record, then the orbit's
    classes x moves, by starting the walk, so a refusal names the first
    charge that fails.  The witness table is one walk of every unit mod
    p, each residue mapped to the (r, sign) of its first discovery; the
    orbit charge admits that walk, since it needs a budget of at least
    2p > phi(p) units.
    """

    __slots__ = ("p", "record", "walk", "witnesses", "decisions")

    def __init__(self, p):
        record = lens_times_circle_record(p, 1)
        walk = _OrbitWalk(record.h4, record.class_h4, (record.aut_multipliers,) * 2)
        witnesses = {}
        for r, rr in square_walk(p):
            witnesses.setdefault(rr, (r, 1))
            witnesses.setdefault(-rr % p, (r, -1))
        self.p = p
        self.record = record
        self.walk = walk
        self.witnesses = witnesses
        self.decisions = {}

    def decide(self, x):
        """The verdict of the lens pair (1, x) and its four certificates
        in the order of _CRITERIA, each a dict or None, kept.

        The homotopy and linking criteria ask the witness of x, the ratio
        of the lens parameters and of the linking values, and the class
        criterion asks it of x^-1, the ratio of the classes q^-1.
        Multiplying by the unit q1^-1 carries the orbit search from class
        1 onto the search from class q1^-1 step for step, since the
        multipliers act by scalars, so the Kreck certificate of (1, x) is
        that of every pair with ratio x."""
        record = self.record
        inv = pow(x, -1, self.p)
        other = ManifoldRecord(record.group, record.w_signs, (inv,), record.h4, record.aut_multipliers)
        kreck, kreck_cert = kreck_equivalent(record, other, walk=self.walk)
        orbit, homot = self.witnesses.get(inv), self.witnesses.get(x)
        verdicts = (kreck, orbit is not None, homot is not None, homot is not None)
        if len(set(verdicts)) != 1:
            raise AssertionError("criteria disagree: %r" % dict(zip(_CRITERIA, verdicts)))
        if kreck:
            decision = (True, kreck_cert, {"r": orbit[0], "sign": orbit[1]},
                        {"r": homot[0], "sign": homot[1]}, {"unit": homot[0], "sign": homot[1]})
        else:
            decision = (False, None, None, None, None)
        self.decisions[x] = decision
        return decision


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
