"""Finite chain complexes of free modules over a group ring.

A complex stores ranks C_0..C_n and boundary matrices d_i: C_i -> C_{i-1}
(shape ranks[i-1] x ranks[i]) together with an orientation character.
Every LambdaComplex is a complex: after the shape checks the constructor
runs validate (d.d = 0 exactly), which raises NotAComplex(degree), so no
consumer re-checks it.  Builders whose output is a complex by
construction take the private _exact_complex, which checks shapes only;
the test suite runs validate on each of them.

Every model and resolution is built from three pieces, or tensor products
of them: zero_complex, periodic_complex (of a cyclic factor) and
circle_complex (of a free generator).

Homology is read off the integer images each boundary keeps, d (x) Z^w
(augment) and d (x) Z[pi] (expand), so each is reduced once.  The
pi-module structure of H_*(C; Z[pi]) is extensions.fpmodule_homology.
"""

from fourfold.errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    GroupMismatch,
    InfiniteGroup,
    NotAComplex,
    UnsupportedGroup,
)
from fourfold.groupring import (
    OrientationChar,
    RingMatrix,
    factor_norm,
    laurent_extension,
    ring_generator,
    ring_matrix_from_columns,
    ring_one,
    ring_zero,
    trivial_char,
    trivial_group,
)
from fourfold.intmat import homology_invariants

__all__ = [
    "LambdaComplex",
    "validate",
    "twisted_dual",
    "homology_Zw",
    "homology_Lambda",
    "zero_complex",
    "periodic_complex",
    "circle_complex",
    "point_complex",
    "presentation_complex",
    "cross_circle",
    "tensor_complex",
]


class LambdaComplex:
    """Free chain complex over Z[pi] with an orientation character."""

    def __init__(self, group, w, ranks, boundaries):
        self._init_shapes(group, w, ranks, boundaries)
        validate(self)

    def _init_shapes(self, group, w, ranks, boundaries):
        if w.group != group:
            raise GroupMismatch("character lives over %s" % (w.group,))
        ranks = tuple(int(r) for r in ranks)
        if any(r < 0 for r in ranks):
            raise DimensionMismatch("negative rank")
        if len(boundaries) != max(len(ranks) - 1, 0):
            raise DimensionMismatch(
                "expected %d boundary maps, got %d" % (max(len(ranks) - 1, 0), len(boundaries))
            )
        for i, b in enumerate(boundaries, start=1):
            if b.group != group:
                raise GroupMismatch("boundary %d lives over %s" % (i, b.group))
            if b.rows != ranks[i - 1] or b.cols != ranks[i]:
                raise DimensionMismatch(
                    "boundary %d has shape %dx%d, expected %dx%d"
                    % (i, b.rows, b.cols, ranks[i - 1], ranks[i])
                )
        self.group = group
        self.w = w
        self.ranks = ranks
        self.boundaries = tuple(boundaries)
        self._homology = {}

    @property
    def top_degree(self):
        return len(self.ranks) - 1

    def d(self, i):
        """Boundary C_i -> C_{i-1}, 1-based."""
        if not 1 <= i <= self.top_degree:
            raise DegreeOutOfRange("no boundary in degree %d" % i)
        return self.boundaries[i - 1]

    def __repr__(self):
        return "LambdaComplex(%s, ranks=%s)" % (self.group, list(self.ranks))


def _exact_complex(group, w, ranks, boundaries):
    """A LambdaComplex with its shapes checked and d.d = 0 taken on trust:
    only for builders whose output is a complex by construction."""
    c = LambdaComplex.__new__(LambdaComplex)
    c._init_shapes(group, w, ranks, boundaries)
    return c


def validate(c):
    """Check d_{i-1} . d_i = 0 exactly; raises NotAComplex on failure."""
    for i in range(2, c.top_degree + 1):
        if not (c.d(i - 1) * c.d(i)).is_zero():
            raise NotAComplex(i)
    return True


def twisted_dual(c):
    """Degree-reversed dual with the orientation twist on every entry.

    The boundary of the dual in degree i is the w-twisted involuted
    transpose of d_{n+1-i}.  Applying the construction twice gives back
    the original complex entry for entry.
    """
    n = c.top_degree
    ranks = tuple(reversed(c.ranks))
    boundaries = [c.d(n + 1 - i).transpose_involute(c.w) for i in range(1, n + 1)]
    return _exact_complex(c.group, c.w, ranks, boundaries)


def homology_Zw(c, i):
    """Homology with twisted integer coefficients at degree i."""
    n = c.top_degree
    if not 0 <= i <= n:
        raise DegreeOutOfRange("degree %d outside 0..%d" % (i, n))
    return _twisted_homology(c, c.w, i)


def _twisted_homology(c, w, i):
    """H_i(C (x) Z^w) from the kept augmented boundaries: d_i leaves
    degree i (none in degree 0), d_(i+1) enters it (none at the top).
    Kept on the complex per (w, i), as augment keeps d (x) Z^w."""
    h = c._homology.get((w, i))
    if h is None:
        d_out = c.d(i).augment(w) if i >= 1 else None
        d_in = c.d(i + 1).augment(w) if i < c.top_degree else None
        h = c._homology[w, i] = homology_invariants(d_out, d_in, c.ranks[i])
    return h


def homology_Lambda(c, i):
    """The abelian invariants of H_i(C (x) Z[pi]), finite groups, read off
    the kept expansions as _twisted_homology reads the augmented maps."""
    if not c.group.is_finite:
        raise InfiniteGroup("group ring homology needs a finite group")
    n = c.top_degree
    if not 0 <= i <= n:
        raise DegreeOutOfRange("degree %d outside 0..%d" % (i, n))
    d_out = c.d(i).expand() if i >= 1 else None
    d_in = c.d(i + 1).expand() if i < n else None
    return homology_invariants(d_out, d_in, c.ranks[i] * c.group.order())


def zero_complex(group, w, ranks):
    """The complex of the given ranks with every boundary zero.  Boundaries
    of one shape are one RingMatrix, so each is augmented and reduced once."""
    shapes = list(zip(ranks, ranks[1:]))
    zeros = {shape: RingMatrix.zeros(group, *shape) for shape in set(shapes)}
    return _exact_complex(group, w, ranks, tuple(zeros[shape] for shape in shapes))


def periodic_complex(group, i, top, w):
    """The periodic resolution of cyclic factor i through degree top,
    written over group: one RingMatrix t_i - 1 in every odd degree and one,
    the norm of factor i, in every even degree, so each is reduced once."""
    odd = RingMatrix(group, 1, 1, [[ring_generator(group, i) - ring_one(group)]])
    even = RingMatrix(group, 1, 1, [[factor_norm(group, i)]])
    boundaries = tuple(odd if k % 2 else even for k in range(1, top + 1))
    return _exact_complex(group, w, (1,) * (top + 1), boundaries)


def circle_complex(group, i, w):
    """The circle factor 0 -> Z[pi] --(t_i - 1)--> Z[pi] of free generator
    i: a resolution of Z over the infinite cyclic group t_i generates."""
    d1 = RingMatrix(group, 1, 1, [[ring_generator(group, i) - ring_one(group)]])
    return _exact_complex(group, w, (1, 1), (d1,))


def point_complex():
    """The one-point space: rank (1,) over the trivial group."""
    g = trivial_group()
    return zero_complex(g, trivial_char(g), (1,))


def presentation_complex(group, wedge_cells=0):
    """The 2-complex of the standard presentation of a finite product of
    cyclic groups: one generator per factor, power relators, and one
    commutator relator per pair.  Optional extra 2-cells attach
    trivially (wedged spheres).

    The cover of the result has vanishing first homology, which is what
    the chasing routines need from their 2-skeleton input.
    """
    if not group.is_finite:
        raise UnsupportedGroup("presentation complexes only for finite groups here")
    k = group.ngens
    one = ring_one(group)
    zero = ring_zero(group)
    gens = [ring_generator(group, i) for i in range(k)]
    d1 = RingMatrix(group, 1, k, [[g - one for g in gens]])
    cols = []
    for i in range(k):
        col = [zero] * k
        col[i] = factor_norm(group, i)
        cols.append(col)
    for i in range(k):
        for j in range(i + 1, k):
            col = [zero] * k
            col[i] = one - gens[j]
            col[j] = gens[i] - one
            cols.append(col)
    for _ in range(wedge_cells):
        cols.append([zero] * k)
    d2 = ring_matrix_from_columns(group, cols, k)
    return _exact_complex(group, trivial_char(group), (1, k, len(cols)), (d1, d2))


def cross_circle(c, sign=1):
    """Tensor with the standard circle complex over a new Laurent variable.

    The sign is the value of the orientation character on the new
    generator.  Boundary convention: d(x (x) y) = dx (x) y
    + (-1)^deg(x) x (x) dy.
    """
    new_group = laurent_extension(c.group, 1)
    w = OrientationChar(new_group, c.w.signs + (sign,))

    def embed(el):
        return el + (0,)

    lifted = _exact_complex(
        new_group,
        w,
        c.ranks,
        tuple(b.map_entries(lambda e: e.map_group(new_group, embed), new_group) for b in c.boundaries),
    )
    return tensor_complex(lifted, circle_complex(new_group, new_group.ngens - 1, w))


def tensor_complex(a, b, top=None):
    """Tensor product over a common group ring, through degree top.

    Degree k has a basis of labels (i, x, y), x a basis element of A_i
    and y one of B_(k-i), ordered by i, then x, then y.  The boundary is
    dA (x) id + (-1)^i id (x) dB: column (i, x, y) holds column x of dA
    at the labels (i-1, r, y) and (-1)^i times column y of dB at the
    labels (i, x, r).  The factors are complexes, so the product
    satisfies d.d = 0 because of the Koszul sign.  With top, degrees
    above it are not built; by default the product is full.
    """
    if a.group != b.group:
        raise GroupMismatch("tensor factors live over different groups")
    if a.w != b.w:
        raise GroupMismatch("tensor factors carry different characters")
    g = a.group
    na, nb = a.top_degree, b.top_degree
    n = na + nb if top is None else min(top, na + nb)
    bases = [
        [
            (i, x, y)
            for i in range(max(0, k - nb), min(k, na) + 1)
            for x in range(a.ranks[i])
            for y in range(b.ranks[k - i])
        ]
        for k in range(n + 1)
    ]
    zero = ring_zero(g)
    # dB_j with its Koszul sign (-1)^i is signed_b[i % 2][j - 1]: each
    # boundary of B is negated once per call, not once per degree
    signed_b = (b.boundaries[:n], tuple(-d for d in b.boundaries[:n]))
    boundaries = []
    for k in range(1, n + 1):
        row_of = {label: r for r, label in enumerate(bases[k - 1])}
        entries = [[zero] * len(bases[k]) for _ in row_of]
        for col, (i, x, y) in enumerate(bases[k]):
            if i:
                for r, row in enumerate(a.d(i).entries):
                    if row[x].terms:
                        entries[row_of[i - 1, r, y]][col] = row[x]
            if i < k:
                for r, row in enumerate(signed_b[i % 2][k - i - 1].entries):
                    if row[y].terms:
                        entries[row_of[i, x, r]][col] = row[y]
        boundaries.append(RingMatrix(g, len(row_of), len(bases[k]), entries))
    return _exact_complex(g, a.w, tuple(len(basis) for basis in bases), tuple(boundaries))
