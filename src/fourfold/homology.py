"""Group homology of finite products of cyclic groups, and of their
products with Z^r.

group_homology owns both: a finite group reads a resolution, and
pi x Z^r with a character trivial on Z^r reads the Kunneth split
H_n(pi x Z^r) = sum over k of H_(n-k)(pi)^C(r,k) in closed form, from
the finite part's cached homology (H_*(Z^r) is free, so no Tor term).

Two independent routes are implemented: tensor products of the periodic
resolutions of the cyclic factors (the production route), and the
normalized bar resolution (the oracle, exponentially larger but assembled
straight from the group law).  The acceptance suite insists the two
agree; the bar route exists so nothing is ever checked against itself.

The periodic resolution of each factor is written directly over the
requested group (t_i - 1 in odd degree, the norm of factor i in even
degree), and the factors are tensored only through the requested bound,
so no boundary is built over another group or above the bound.

A resolution is a plain LambdaComplex over Z[pi] with trivial character,
truncated at top_degree: its augmented homology is Z in degree 0 and
zero in degrees 1..top_degree-1.  That holds by construction (the
periodic resolution of Z/p, and the Kunneth theorem for tensor
products), so it is checked by the test suite, not at run time.  Twisted
integer homology reads the resolution's augmented boundaries
(RingMatrix.augment), each kept per matrix and character with its Smith
form: H_n and H_(n+1) share the reduction of d_(n+1), and a periodic
resolution reduces its one odd and one even boundary once each.  With
coefficients in a module, the module cuts the subquotient (FPModule).
"""

import functools
import itertools
import math

from fourfold.complexes import _exact_complex, _twisted_homology, tensor_complex
from fourfold.errors import (
    DegreeOutOfRange,
    GroupMismatch,
    InfiniteGroup,
    UnsupportedCharacter,
    charge,
    generator_budget,
)
from fourfold.groupring import (
    RingMatrix,
    factor_norm,
    ring_generator,
    ring_one,
    trivial_char,
)
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


def _periodic_factor(group, i, bound):
    """The periodic resolution of cyclic factor i, written over group."""
    odd = RingMatrix(group, 1, 1, [[ring_generator(group, i) - ring_one(group)]])
    even = RingMatrix(group, 1, 1, [[factor_norm(group, i)]])
    boundaries = tuple(odd if k % 2 else even for k in range(1, bound + 1))
    return _exact_complex(group, trivial_char(group), (1,) * (bound + 1), boundaries)


# An entry is one resolution: 2 kB for Z/2 to 23 kB for Z/4 x Z/4 x Z/4
# through degree 6 (tracemalloc).  group_homology over all its degrees
# keeps one augmented matrix per boundary and character read, with its
# Smith form: the entry then weighs 5 kB (Z/2) to 70 kB (Z/4^3) for one
# character, and 392 kB for all eight characters of Z/4^3.  A boundary
# that chain-map lifts solve against keeps its expansion and Smith form,
# so after hopf_check an entry holds 1.4 MB (Z/6 x Z/6), 8.0 MB
# (Z/2 x Z/3 x Z/6) or 24.9 MB (Z/4^3).
_RESOLUTION_CACHE_SIZE = 64
# An entry is one AbelianInvariants, a couple of hundred bytes.
_HOMOLOGY_CACHE_SIZE = 1024


def resolution_for(group, bound=DEFAULT_DEGREE_BOUND):
    """A resolution of Z for a finite product of cyclic groups.

    The tensor product, through degree bound, of the periodic resolutions
    of the factors of order > 1, each written over group itself; with no
    such factor it is Z in degree 0.  Cached per (group, bound) in a
    bounded cache; a rebuilt resolution is equal to the evicted one, so
    classes computed against it keep their coordinates.
    """
    if not group.is_finite:
        raise InfiniteGroup("resolutions are built for finite groups only")
    return _resolution(group, bound)


@functools.lru_cache(maxsize=_RESOLUTION_CACHE_SIZE)
def _resolution(group, bound):
    factors = [i for i, o in enumerate(group.orders) if o > 1]
    if not factors:
        ranks = (1,) + (0,) * bound
        boundaries = tuple(RingMatrix.zeros(group, ranks[i - 1], ranks[i]) for i in range(1, bound + 1))
        return _exact_complex(group, trivial_char(group), ranks, boundaries)
    # degree n has rank C(n+k-1, k-1) over k factors, so the top boundary,
    # which H_(bound-1) reduces, is the largest, and the norm element of a
    # factor of order n has n terms; charge both before building
    k = len(factors)
    cells = math.comb(bound + k - 2, k - 1) * math.comb(bound + k - 1, k - 1)
    n = max(group.orders)
    charge(n, "the norm element of Z/%d needs %d terms", n, n)
    charge(cells, "resolution through degree %d needs %d cells in its top boundary", bound, cells)
    res = _periodic_factor(group, factors[0], bound)
    for i in factors[1:]:
        res = tensor_complex(res, _periodic_factor(group, i, bound), top=bound)
    return res


def group_homology(group, w, degree):
    """H_degree(pi; Z^w) for a finite product of cyclic groups, or for
    such a group times Z^r.

    Twisting happens at augmentation time: the resolution itself is
    untwisted and the boundary matrices are collapsed with the signed
    augmentation.  On a Laurent extension the character must be +1 on
    every free direction (UnsupportedCharacter otherwise), and the answer
    is the Kunneth split sum_(k <= min(r, n)) H_(n-k)(pi; Z^w)^C(r,k) of
    the finite part pi, whose n torsion orders are charged n^2 against
    the budget before they are listed.  A character of another group is
    a GroupMismatch.
    """
    if w.group is not group and w.group != group:
        raise GroupMismatch("character over %s, group %s" % (w.group, group))
    if degree < 0:
        raise DegreeOutOfRange("negative degree")
    if group.is_finite:
        return _group_homology(group, w, degree)
    if any(s != 1 for s in w.signs[len(group.orders) :]):
        raise UnsupportedCharacter("character must be trivial on free directions")
    base, w_base, r = group.finite_part(), w.restrict_finite(), group.laurent_rank
    terms = [(_group_homology(base, w_base, degree - k), math.comb(r, k)) for k in range(min(r, degree) + 1)]
    # from_diag canonicalises the torsion list pair by pair, so its work
    # is the square of the list's length
    n = sum(copies * len(h.torsion) for h, copies in terms)
    charge(n * n, "Kunneth split of H_%d needs %d torsion orders and %d pairs to combine", degree, n, n * n)
    free, orders = 0, []
    for h, copies in terms:
        free += copies * h.free_rank
        orders += h.torsion * copies
    return AbelianInvariants.from_diag(free, orders)


@functools.lru_cache(maxsize=_HOMOLOGY_CACHE_SIZE)
def _group_homology(group, w, degree):
    return _twisted_homology(resolution_for(group, max(DEFAULT_DEGREE_BOUND, degree + 1)), w, degree)


def _bar_tuples(els, k):
    return list(itertools.product(els, repeat=k))


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
    n = group.order()
    count = (n - 1 if normalized else n) ** (degree + 1)
    cells = count * count
    what = "bar resolution needs %d generators in degree %d and %d cells for their Smith form"
    charge(cells, what, count, degree + 1, cells)
    d_out = _bar_boundary(group, w, degree, normalized) if degree >= 1 else None
    d_in = _bar_boundary(group, w, degree + 1, normalized)
    els = _bar_elements(group, normalized)
    dim = len(_bar_tuples(els, degree))
    return homology_invariants(d_out, d_in, dim)


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
    lower = _bar_tuples(els, k - 1)
    upper = _bar_tuples(els, k)
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
