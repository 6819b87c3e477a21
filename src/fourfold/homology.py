"""Group homology of pi x Z^r, pi a finite product of cyclic groups and
r >= 0.

Two independent routes are implemented: tensor products of one
resolution per factor of the group (the production route, for every
supported group), and the normalized bar resolution (the oracle for
finite groups, exponentially larger but assembled straight from the
group law).  The acceptance suite insists the two agree; the bar route
exists so nothing is ever checked against itself.

Each factor is resolved over the requested group itself, by a piece of
complexes: a cyclic factor by its periodic_complex (t_i - 1 in odd
degree, the norm of factor i in even degree), a free generator by its
circle_complex 0 -> Z[pi] --(t - 1)--> Z[pi], and a group with no cyclic
factor is seeded by the zero_complex of Z in degree 0, so over Z^r alone
the product is the Koszul resolution, which ends at degree r.  The
pieces are tensored only through the requested bound, so no boundary is
built over another group or above the bound.

A resolution is a plain LambdaComplex over Z[pi] with trivial character,
truncated at top_degree: its augmented homology is Z in degree 0 and
zero in degrees 1..top_degree-1.  That holds by construction (the
periodic resolution of Z/p, the circle of Z, and the Kunneth theorem for
tensor products), so it is checked by the test suite, not at run time.
Twisted integer homology reads the resolution's augmented boundaries
(RingMatrix.augment), each kept per matrix and character with its Smith
form: H_n and H_(n+1) share the reduction of d_(n+1), and a periodic
resolution reduces its one odd and one even boundary once each.  H_n is
kept on the resolution too.  With coefficients in a module, the module
cuts the subquotient (FPModule).
"""

import functools
import itertools
import math

from fourfold.complexes import _twisted_homology, circle_complex, periodic_complex, tensor_complex, zero_complex
from fourfold.errors import (
    DegreeOutOfRange,
    GroupMismatch,
    InfiniteGroup,
    _too_long,
    charge,
    generator_budget,
)
from fourfold.groupring import trivial_char
from fourfold.intmat import AbelianInvariants, IntMatrix, homology_invariants

__all__ = [
    "group_homology",
    "bar_homology_oracle",
    "module_homology",
    "generator_budget",
    "DEFAULT_DEGREE_BOUND",
]

# H_n reads d_n and d_(n+1), so one resolution through degree 6 serves
# H_0..H_5.
DEFAULT_DEGREE_BOUND = 6


# An entry is one resolution: 2 kB for Z/2 to 23 kB for Z/4 x Z/4 x Z/4
# through degree 6 (tracemalloc).  group_homology over all its degrees
# keeps one augmented matrix per boundary and character read, with its
# Smith form, and each H_n it answered: the entry then weighs 5 kB (Z/2)
# to 70 kB (Z/4^3) for one character, and 392 kB for all eight
# characters of Z/4^3.  A boundary that chain-map lifts solve against
# keeps its expansion and Smith form, so after hopf_check an entry holds
# 1.4 MB (Z/6 x Z/6), 8.0 MB (Z/2 x Z/3 x Z/6) or 24.9 MB (Z/4^3).
_RESOLUTION_CACHE_SIZE = 64


def resolution_for(group, bound=DEFAULT_DEGREE_BOUND):
    """A resolution of Z for pi x Z^r, pi a finite product of cyclic
    groups.

    The tensor product, through degree bound, of the periodic resolutions
    of the cyclic factors of order > 1 and the circles of the free
    generators, each written over group itself.  The first periodic
    factor seeds the product; with none, Z in degree 0 does, and over Z^r
    alone the product ends at degree min(bound, r).  Cached per (group,
    bound) in a bounded cache, keyed on the budget too, so a kept
    resolution serves only calls under the budget that admitted it; a
    rebuilt resolution is equal to the evicted one, so classes computed
    against it keep their coordinates.
    """
    return _resolution(group, bound, generator_budget())


@functools.lru_cache(maxsize=_RESOLUTION_CACHE_SIZE)
def _resolution(group, bound, budget):
    cyclic = [i for i, o in enumerate(group.orders) if o > 1]
    free = range(len(group.orders), group.ngens)
    k, r = len(cyclic), len(free)
    # the product ends at the bound, or over Z^r alone at degree r; charge
    # that length, then the norm element of the largest cyclic factor (n
    # terms for Z/n), then the largest boundary, before building
    length = min(bound, r) if r and not k else bound
    charge(length, "resolution through degree %s needs %s boundaries", bound, length)
    if cyclic:
        n = max(group.orders)
        charge(n, "the norm element of Z/%s needs %s terms", n, n)
    # rank n is the coefficient of x^n in (1+x)^r/(1-x)^k.  With a cyclic
    # factor the ranks never fall, so the top boundary is the largest; over
    # Z^r alone they peak at degree r/2, and d_(r//2+1) is the largest
    top = bound if cyclic else min(bound, r // 2 + 1)
    where = "top boundary" if top == bound else "boundary d_%d" % top
    what = "resolution through degree %s needs %s cells in its %s"
    if top and k:
        # the exact ranks step through huge binomials for seconds, so one
        # term of each is charged first when their product is too long to
        # print: then the exact need would print as a magnitude too
        floor = _rank_floor(k, r, top - 1) * _rank_floor(k, r, top)
        if _too_long(floor):
            charge(floor, what, bound, floor, where)
    cells = _rank(k, r, top - 1) * _rank(k, r, top) if top else 0
    charge(cells, what, bound, cells, where)
    w = trivial_char(group)
    seed = (1,) + (0,) * (0 if r else bound)
    res = periodic_complex(group, cyclic[0], bound, w) if cyclic else zero_complex(group, w, seed)
    for i in cyclic[1:]:
        res = tensor_complex(res, periodic_complex(group, i, bound, w), top=bound)
    for i in free:
        res = tensor_complex(res, circle_complex(group, i, w), top=bound)
    return res


def _rank(k, r, n):
    """Rank n of the resolution of k cyclic factors and r free generators:
    C(r, n), or with k > 0 the sum over j of C(r, j) C(n - j + k - 1, k - 1)."""
    if not k:
        return math.comb(r, n)
    total, row = 0, 1
    for j in range(min(r, n) + 1):
        total += row * math.comb(n - j + k - 1, k - 1)
        row = row * (r - j) // (j + 1)
    return total


def _rank_floor(k, r, n):
    """A lower bound on _rank(k, r, n), k > 0, that needs no big binomial:
    its term j = min(r, n) // 2, with C(r, j) >= (r // j)^j."""
    j = min(r, n) // 2
    return (r // j) ** j * math.comb(n - j + k - 1, k - 1) if j else math.comb(n + k - 1, k - 1)


def group_homology(group, w, degree):
    """H_degree(pi; Z^w) for pi x Z^r, pi a finite product of cyclic
    groups, with any character w.

    Twisting happens at augmentation time: the resolution itself is
    untwisted and the boundary matrices are collapsed with the signed
    augmentation, so a character that reverses a free direction is read
    like any other.  Over Z^r alone H_n is 0 above r, where the resolution
    ends.  A character of another group is a GroupMismatch.
    """
    if w.group is not group and w.group != group:
        raise GroupMismatch("character over %s, group %s" % (w.group, group))
    if degree < 0:
        raise DegreeOutOfRange("negative degree")
    res = resolution_for(group, max(DEFAULT_DEGREE_BOUND, degree + 1))
    if degree > res.top_degree:
        return AbelianInvariants(0, ())
    return _twisted_homology(res, w, degree)


def bar_homology_oracle(group, w, degree, normalized=True):
    """H_degree(pi; Z^w) from the (normalized) bar resolution.

    Generators in degree k are k-tuples of non-identity elements (all
    elements in the unnormalized variant); the boundary is the usual
    alternating sum, with the first face weighted by the character.
    Exponentially large, so charged against the budget: the Smith form
    of the top boundary keeps a square transform over its generators,
    so the charge is the square of their number.  A character of another
    group is a GroupMismatch.
    """
    if w.group is not group and w.group != group:
        raise GroupMismatch("character over %s, group %s" % (w.group, group))
    if not group.is_finite:
        raise InfiniteGroup("bar resolution needs a finite group")
    n = group.order() - 1 if normalized else group.order()
    count = n ** (degree + 1)
    cells = count * count
    what = "bar resolution needs %s generators in degree %s and %s cells for their Smith form"
    charge(cells, what, count, degree + 1, cells)
    d_out = _bar_boundary(group, w, degree, normalized) if degree >= 1 else None
    d_in = _bar_boundary(group, w, degree + 1, normalized)
    return homology_invariants(d_out, d_in, n**degree)


def _bar_elements(group, normalized):
    els = group.elements()
    if normalized:
        e = group.identity
        els = [x for x in els if x != e]
    return els


def _bar_boundary(group, w, k, normalized):
    """Integer matrix of the bar boundary B_k -> B_{k-1} after twisting
    the coefficients down to Z^w."""
    els = _bar_elements(group, normalized)
    lower = list(itertools.product(els, repeat=k - 1))
    upper = list(itertools.product(els, repeat=k))
    index = {t: i for i, t in enumerate(lower)}
    e = group.identity
    data = [[0] * len(upper) for _ in range(len(lower))]

    def add(t, j, c):
        if normalized and any(x == e for x in t):
            return
        data[index[t]][j] += c

    for j, t in enumerate(upper):
        add(t[1:], j, w.sign(t[0]))
        for i in range(k - 1):
            merged = t[:i] + (group.mul(t[i], t[i + 1]),) + t[i + 2 :]
            add(merged, j, -1 if i % 2 == 0 else 1)
        add(t[:-1], j, -1 if k % 2 == 1 else 1)
    return IntMatrix(len(lower), len(upper), data)


def module_homology(res, w, module, degree):
    """H_degree(pi; M^w) for a presented module M over the same group.

    The module cuts the subquotient itself (FPModule.subquotient).  A
    character or resolution over another group is a GroupMismatch.
    """
    if degree < 0 or degree + 1 > res.top_degree:
        raise DegreeOutOfRange("degree %d outside resolution bound" % degree)
    module.require_group(w.group)
    d_out = res.d(degree).twist(w) if degree >= 1 else None
    return module.subquotient(d_out, res.d(degree + 1).twist(w), res.ranks[degree]).invariants
