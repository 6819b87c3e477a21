"""Group rings Z[pi] for products of cyclic groups and Laurent extensions.

Every supported group is abelian: a finite product of cyclic factors,
optionally extended by free Z factors (Laurent variables).  Elements are
exponent tuples, one coordinate per generator; finite coordinates are
reduced mod their order, Laurent coordinates are signed integers.  The
enumeration of a finite group is lexicographic in the exponent tuple and
fixed once, so every matrix expansion downstream is reproducible.

A RingElement holds one invariant: every key of its terms is a reduced
exponent tuple and every coefficient is nonzero.  The public constructor
RingElement(group, terms) establishes it from any input, reducing and
merging keys.  Ring operations whose inputs already hold it (sums,
differences, negation, ring and integer products, twist, involute,
RingMatrix products) build their result through RingElement._from_reduced,
which only drops zero coefficients, so each exponent tuple of a product
is reduced once and a sum reduces nothing.

This module owns the integer coordinates of Z[pi]-matrices, finite pi:
block (i, j) of RingMatrix.expand is the regular representation of entry
(i, j), the image of source generator j is column j*|pi| and is what
RingMatrix.column_coordinates returns, ring_matrix_from_coordinates and
deexpand_vector invert it, and kron_identity turns a matrix into the map
it induces on the coordinates of an s-generator module.  It also owns the
ring-level questions that go through those coordinates:
RingMatrix.solve (the X with A X = B), RingMatrix.kernel (a matrix whose
columns generate the kernel) and spin_generators (a few ring generators
of a pi-stable lattice, picked from a Z-basis of it).  Other modules call
these and never place coordinates themselves.  expand() keeps its result,
which keeps its Smith form, so a matrix is expanded and reduced once.
augment(w) keeps the integer matrix M (x) Z^w per character in the same
way; it is the one place that collapses a ring matrix to its twisted
integer image.
"""

import functools
import itertools
import operator

from fourfold.errors import (
    GroupMismatch,
    InfiniteGroup,
    UnsupportedCharacter,
    UnsupportedGroup,
)
from fourfold.intmat import IntMatrix, kernel_basis, solve_columns
from fourfold.values import FrozenValue

__all__ = [
    "GroupDescriptor",
    "trivial_group",
    "cyclic_group",
    "product_group",
    "laurent_extension",
    "OrientationChar",
    "trivial_char",
    "char_from_signs",
    "RingElement",
    "ring_zero",
    "ring_one",
    "ring_generator",
    "norm_element",
    "factor_norm",
    "regular_representation",
    "RingMatrix",
    "spin_generators",
]


class GroupDescriptor(FrozenValue):
    """orders: cyclic factor orders (each >= 1); laurent_rank: free rank."""

    __slots__ = ("orders", "laurent_rank")

    def __init__(self, orders, laurent_rank):
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "laurent_rank", laurent_rank)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.orders, self.laurent_rank) == (other.orders, other.laurent_rank)
        return NotImplemented

    def __hash__(self):
        return hash((self.orders, self.laurent_rank))

    @property
    def is_finite(self):
        return self.laurent_rank == 0

    @property
    def ngens(self):
        return len(self.orders) + self.laurent_rank

    def order(self):
        if not self.is_finite:
            raise InfiniteGroup("group has Laurent rank %d" % self.laurent_rank)
        n = 1
        for o in self.orders:
            n *= o
        return n

    @property
    def identity(self):
        return (0,) * self.ngens

    def reduce(self, el):
        """The exponent tuple with each finite coordinate taken mod its
        order; Laurent coordinates pass through."""
        if len(el) != self.ngens:
            raise GroupMismatch("element of length %d in group with %d generators" % (len(el), self.ngens))
        orders = self.orders
        if not orders:
            return tuple(el)
        if self.laurent_rank:
            k = len(orders)
            return tuple(map(operator.mod, el[:k], orders)) + tuple(el[k:])
        return tuple(map(operator.mod, el, orders))

    def mul(self, a, b):
        return self.reduce(tuple(map(operator.add, a, b)))

    def inv(self, a):
        return self.reduce(tuple(-x for x in a))

    def generator(self, i):
        if not 0 <= i < self.ngens:
            raise GroupMismatch("generator index %d is outside range(%d)" % (i, self.ngens))
        el = [0] * self.ngens
        el[i] = 1
        return self.reduce(tuple(el))

    def elements(self):
        """All elements of a finite group, lexicographic in exponents."""
        if not self.is_finite:
            raise InfiniteGroup("cannot enumerate a Laurent extension")
        return _element_table(self.orders)[0]

    def finite_part(self):
        return _get_descriptor(self.orders, 0)

    def __str__(self):
        base = " x ".join("Z/%d" % o for o in self.orders) or "trivial"
        if self.laurent_rank:
            base += " x Z" + ("^%d" % self.laurent_rank if self.laurent_rank > 1 else "")
        return base


# A descriptor is a frozen pair of a short tuple and an int, a few hundred
# bytes, so 1024 of them stay well under a megabyte.  An evicted descriptor
# is rebuilt as an equal, not identical, object; RingElement._check falls
# back to == for that case.
_DESCRIPTOR_CACHE_SIZE = 1024
# A table holds |pi| exponent tuples and their index, about 200 bytes per
# element: 64 tables of groups of order up to 1000 stay under 13 MB.
_ELEMENT_TABLE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_DESCRIPTOR_CACHE_SIZE)
def _get_descriptor(orders, laurent_rank):
    return GroupDescriptor(orders, laurent_rank)


@functools.lru_cache(maxsize=_ELEMENT_TABLE_CACHE_SIZE)
def _element_table(orders):
    """The elements of the finite group with these cyclic orders, in the
    fixed enumeration, and the index of each."""
    els = [tuple(t) for t in itertools.product(*(range(o) for o in orders))]
    return els, {e: i for i, e in enumerate(els)}


def trivial_group():
    return _get_descriptor((), 0)


def cyclic_group(n):
    if n < 1:
        raise UnsupportedGroup("cyclic order must be >= 1")
    return _get_descriptor((n,), 0)


def product_group(orders):
    orders = tuple(int(o) for o in orders)
    if any(o < 1 for o in orders):
        raise UnsupportedGroup("cyclic orders must be >= 1")
    return _get_descriptor(orders, 0)


def laurent_extension(base, rank=1):
    if rank < 1:
        raise UnsupportedGroup("Laurent rank must be >= 1")
    return _get_descriptor(base.orders, base.laurent_rank + rank)


class OrientationChar(FrozenValue):
    """Homomorphism pi -> Z/2, stored as a sign per generator.

    A generator of odd finite order must map to +1; this is checked at
    construction.
    """

    __slots__ = ("group", "signs")

    def __init__(self, group, signs):
        if len(signs) != group.ngens:
            raise UnsupportedCharacter(
                "need %d signs, got %d" % (group.ngens, len(signs))
            )
        if any(s not in (1, -1) for s in signs):
            raise UnsupportedCharacter("signs must be +1 or -1")
        for o, s in zip(group.orders, signs):
            if s == -1 and o % 2 == 1:
                raise UnsupportedCharacter(
                    "generator of odd order %d cannot have sign -1" % o
                )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "signs", signs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.signs) == (other.group, other.signs)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.signs))

    @property
    def is_trivial(self):
        return all(s == 1 for s in self.signs)

    def sign(self, el):
        """(-1)^w on a group element."""
        parity = 0
        for e, s in zip(el, self.signs):
            if s == -1:
                parity += e
        return -1 if parity % 2 else 1


def trivial_char(group):
    return OrientationChar(group, (1,) * group.ngens)


def char_from_signs(group, signs):
    return OrientationChar(group, tuple(signs))


class RingElement:
    """Element of Z[pi]: finitely many exponent tuples with int coefficients.

    terms maps reduced exponent tuples to nonzero coefficients.  This
    constructor establishes that from any dict, reducing every key and
    merging keys that reduce alike; _from_reduced trusts its keys.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group, terms):
        self.group = group
        clean = {}
        for el, c in terms.items():
            if c:
                key = group.reduce(el)
                c2 = clean.get(key, 0) + c
                if c2:
                    clean[key] = c2
                elif key in clean:
                    del clean[key]
        self.terms = clean

    @classmethod
    def _from_reduced(cls, group, terms):
        """The element with these terms, whose keys are already reduced and
        distinct; only zero coefficients are dropped."""
        self = object.__new__(cls)
        self.group = group
        self.terms = {el: c for el, c in terms.items() if c}
        return self

    def _check(self, other):
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatch("elements over %s and %s" % (self.group, other.group))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for el, c in other.terms.items():
            terms[el] = terms.get(el, 0) + c
        return RingElement._from_reduced(self.group, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RingElement._from_reduced(self.group, {el: -c for el, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement._from_reduced(self.group, {el: c * other for el, c in self.terms.items()})
        self._check(other)
        terms = {}
        _accumulate_product(self.group.mul, self.terms, other.terms, terms)
        return RingElement._from_reduced(self.group, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    def involute(self):
        """g -> g^-1 extended linearly (the untwisted involution)."""
        return RingElement._from_reduced(self.group, {self.group.inv(el): c for el, c in self.terms.items()})

    def twist(self, w):
        """Multiply the coefficient of each g by (-1)^w(g)."""
        return RingElement._from_reduced(self.group, {el: c * w.sign(el) for el, c in self.terms.items()})

    def twisted_augmentation(self, w):
        """Sum of coefficients weighted by (-1)^w(g)."""
        return sum(c * w.sign(el) for el, c in self.terms.items())

    def map_group(self, target, embed):
        """Push the element into another group along an exponent map."""
        return RingElement(target, {embed(el): c for el, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for el, c in self.sorted_terms():
            bits.append("%+d*t%s" % (c, list(el)))
        return " ".join(bits)


def _accumulate_product(mul, a, b, acc):
    """Add the product of the term dicts a and b into acc, reducing each
    product exponent tuple once (mul is the group law)."""
    for x, ca in a.items():
        for y, cb in b.items():
            key = mul(x, y)
            acc[key] = acc.get(key, 0) + ca * cb


def ring_zero(group):
    return RingElement(group, {})


def ring_one(group):
    return RingElement(group, {group.identity: 1})


def ring_generator(group, i, power=1):
    return RingElement(group, {tuple(power * x for x in group.generator(i)): 1})


def norm_element(group):
    """Sum of all elements of a finite group."""
    return RingElement(group, {el: 1 for el in group.elements()})


def factor_norm(group, i):
    """1 + t + ... + t^(n-1) for the generator t of cyclic factor i, of order n."""
    if not 0 <= i < len(group.orders):
        raise GroupMismatch("cyclic factor index %d is outside range(%d)" % (i, len(group.orders)))
    e = group.identity
    return RingElement(group, {e[:i] + (k,) + e[i + 1 :]: 1 for k in range(group.orders[i])})


def regular_representation(a):
    """Integer matrix of multiplication by a on Z[pi], finite pi.

    Column j holds the coordinates of a * g_j in the fixed enumeration,
    so regular_representation(a*b) == rep(a) * rep(b).
    """
    g = a.group
    if not g.is_finite:
        raise InfiniteGroup("regular representation needs a finite group")
    els, index = _element_table(g.orders)
    n = len(els)
    data = [[0] * n for _ in range(n)]
    for j, gj in enumerate(els):
        for el, c in a.terms.items():
            data[index[g.mul(el, gj)]][j] += c
    return IntMatrix(n, n, data)


class RingMatrix:
    """Matrix over Z[pi], stored as rows of RingElements.  Immutable: no code
    writes its fields after construction, so expand() and augment() can keep
    their results."""

    __slots__ = ("group", "rows", "cols", "entries", "_expanded", "_augmented")

    def __init__(self, group, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise GroupMismatch("ragged ring matrix")
        self.group = group
        self.rows = rows
        self.cols = cols
        self.entries = [list(r) for r in entries]
        self._expanded = None
        self._augmented = {}

    @classmethod
    def zeros(cls, group, rows, cols):
        z = ring_zero(group)
        return cls(group, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, group, n):
        one = ring_one(group)
        z = ring_zero(group)
        return cls(group, n, n, [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_int_matrix(cls, group, m):
        one = ring_one(group)
        return cls(group, m.rows, m.cols, [[one * x for x in r] for r in m.data])

    def __mul__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise GroupMismatch("ring matrix shapes %dx%d and %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        g = self.group
        if g is not other.group and g != other.group:
            raise GroupMismatch("ring matrices over %s and %s" % (g, other.group))
        columns = list(zip(*other.entries)) if other.rows else [()] * other.cols
        out = []
        for row in self.entries:
            out_row = []
            for col in columns:
                acc = {}
                for a, b in zip(row, col):
                    if a.terms and b.terms:
                        _accumulate_product(g.mul, a.terms, b.terms, acc)
                out_row.append(RingElement._from_reduced(g, acc))
            out.append(out_row)
        return RingMatrix(g, self.rows, other.cols, out)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise GroupMismatch("ring matrix shapes differ")
        return RingMatrix(
            self.group,
            self.rows,
            self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __neg__(self):
        return self.map_entries(lambda e: -e)

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def is_zero(self):
        return all(e.is_zero() for r in self.entries for e in r)

    def map_entries(self, fn, group=None):
        g = group or self.group
        return RingMatrix(g, self.rows, self.cols, [[fn(e) for e in r] for r in self.entries])

    def twist(self, w):
        return self.map_entries(lambda e: e.twist(w))

    def transpose_involute(self, w=None):
        """Involuted transpose; with w also applies the orientation signs.

        This is the dual of a map of free modules in the fixed bases.
        """
        out = []
        for j in range(self.cols):
            row = []
            for i in range(self.rows):
                e = self.entries[i][j].involute()
                if w is not None:
                    e = e.twist(w)
                row.append(e)
            out.append(row)
        return RingMatrix(self.group, self.cols, self.rows, out)

    def augment(self, w=None):
        """The integer matrix self (x) Z^w: each entry collapsed by the
        w-twisted augmentation; w None is the trivial character.

        Built the first time a character is read and then kept, so its
        Smith form is kept with it: a boundary that a resolution reuses in
        several degrees is augmented and reduced once per character.  A
        character over another group is a GroupMismatch.
        """
        if w is None:
            w = trivial_char(self.group)
        elif w.group is not self.group and w.group != self.group:
            raise GroupMismatch("character over %s, matrix over %s" % (w.group, self.group))
        m = self._augmented.get(w.signs)
        if m is None:
            data = [[e.twisted_augmentation(w) for e in r] for r in self.entries]
            m = self._augmented[w.signs] = IntMatrix._adopt(self.rows, self.cols, data)
        return m

    def transpose(self):
        """Plain transpose, without the involution."""
        return RingMatrix(
            self.group, self.cols, self.rows, [[r[j] for r in self.entries] for j in range(self.cols)]
        )

    def kron_identity(self, s):
        """M (x) I_s: entry (i*s+b, j*s+b) is M[i][j], every other entry 0.

        Expanded, this is the map M induces on s-generator coordinates:
        e * I_s acts on Z^(s*|pi|) as multiplication by e.
        """
        z = ring_zero(self.group)
        out = []
        for row in self.entries:
            for b in range(s):
                r = [z] * (self.cols * s)
                r[b::s] = row
                out.append(r)
        return RingMatrix(self.group, self.rows * s, self.cols * s, out)

    def expand(self):
        """Integer block matrix of the map on Z-coordinates, finite pi.

        Block (i, j) is the regular representation of entry (i, j), so
        column j*|pi| of the result holds the coordinates of the image of
        source generator j (see column_coordinates).  Each distinct entry
        is represented once, and the result is kept with its Smith form.
        """
        if self._expanded is not None:
            return self._expanded
        g = self.group
        if not g.is_finite:
            raise InfiniteGroup("expansion needs a finite group")
        n = g.order()
        data = [[0] * (self.cols * n) for _ in range(self.rows * n)]
        blocks = {}
        for i, row in enumerate(self.entries):
            band = data[i * n : (i + 1) * n]
            for j, e in enumerate(row):
                if not e.terms:
                    continue
                block = blocks.get(e)
                if block is None:
                    block = blocks[e] = regular_representation(e).data
                for drow, brow in zip(band, block):
                    drow[j * n : (j + 1) * n] = brow
        self._expanded = IntMatrix._adopt(self.rows * n, self.cols * n, data)
        return self._expanded

    def column_coordinates(self):
        """Integer coordinates of each column, finite pi.

        Column j is the concatenation of the coordinates of its entries
        in the fixed element enumeration: the image of source generator j,
        column j*|pi| of expand().
        """
        g = self.group
        if not g.is_finite:
            raise InfiniteGroup("coordinates need a finite group")
        index = _element_table(g.orders)[1]
        n = len(index)
        out = []
        for j in range(self.cols):
            vec = [0] * (self.rows * n)
            for i, row in enumerate(self.entries):
                for el, c in row[j].terms.items():
                    vec[i * n + index[el]] = c
            out.append(tuple(vec))
        return out

    def solve(self, b):
        """The X with self * X == b over Z[pi], finite pi, or None.

        One expansion and one Smith form serve every column of b; column j
        of X is the lattice solution for the coordinates of column j of b.
        A b over another group is a GroupMismatch.
        """
        if b.group is not self.group and b.group != self.group:
            raise GroupMismatch("ring matrices over %s and %s" % (self.group, b.group))
        sols = solve_columns(self.expand(), b.column_coordinates())
        if None in sols:
            return None
        return ring_matrix_from_coordinates(self.group, sols, self.cols)

    def kernel(self):
        """A ring matrix whose columns generate the kernel, finite pi.

        The integer kernel of the expansion is the expansion of the ring
        kernel, so its basis columns generate the kernel over the ring.
        """
        return ring_matrix_from_coordinates(self.group, kernel_basis(self.expand()).columns(), self.cols)

    def __repr__(self):
        return "RingMatrix(%s, %d, %d)" % (self.group, self.rows, self.cols)


def ring_matrix_from_columns(group, columns, rows):
    """Assemble a RingMatrix from per-column lists of RingElements."""
    z = ring_zero(group)
    entries = [[z] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, e in enumerate(col):
            entries[i][j] = e
    return RingMatrix(group, rows, len(columns), entries)


def deexpand_vector(group, vec, ranks):
    """Inverse of expand() on a coordinate vector: Z^(ranks*|pi|) -> Z[pi]^ranks."""
    els = group.elements()
    n = len(els)
    if len(vec) != ranks * n:
        raise GroupMismatch("vector length %d, expected %d" % (len(vec), ranks * n))
    out = []
    for i in range(ranks):
        terms = {}
        for k, el in enumerate(els):
            c = vec[i * n + k]
            if c:
                terms[el] = c
        out.append(RingElement(group, terms))
    return out


def ring_matrix_from_coordinates(group, columns, rows):
    """Inverse of RingMatrix.column_coordinates: the RingMatrix with the
    given number of rows whose column j has integer coordinates columns[j]."""
    return ring_matrix_from_columns(group, [deexpand_vector(group, c, rows) for c in columns], rows)


def spin_generators(group, rank, basis):
    """Ring generators of a Z[pi]-submodule of Z[pi]^rank, finite pi.

    basis holds, as columns, a Z-basis of a sublattice of Z^(rank*|pi|)
    that pi maps into itself.  Its columns are walked in order, and a
    column is kept only when it lies outside the Z[pi]-span of the columns
    kept so far, which is the column span of their expansion.  One solve
    against that span tests every later column; the columns inside stay
    inside as the span grows, so only those outside are walked on.  When
    none is left, every basis column lies in the span, so the span is the
    whole lattice and the kept columns, as a RingMatrix with rank rows,
    generate it over the ring.  This is the spinning step of the MeatAxe
    (Parker 1984) with a span test in place of the dimension test, so the
    lattice need not be saturated.
    """
    cols = basis.columns()
    kept = []
    while cols:
        kept.append(cols[0])
        cols = cols[1:]
        if cols:
            span = ring_matrix_from_coordinates(group, kept, rank).expand()
            cols = [c for c, x in zip(cols, solve_columns(span, cols)) if x is None]
    return ring_matrix_from_coordinates(group, kept, rank)
