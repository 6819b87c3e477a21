"""Exact integer matrices, Smith normal form and lattice arithmetic.

All entries are Python ints, so intermediate growth is handled by
arbitrary precision arithmetic; nothing here ever rounds.  The Smith
reduction itself lives in _snf_py and tracks the two transforms U and V;
everything that needs U^-1 reads it off A * V instead.  IntMatrix.smith()
reduces a matrix once and keeps the SmithForm, which answers every lattice
question below: each matrix is factored once, however often it is asked.
"""

import math

from fourfold._snf_py import snf_inplace
from fourfold.errors import DimensionMismatch, HypothesisViolated
from fourfold.values import FrozenValue

__all__ = [
    "IntMatrix",
    "SmithForm",
    "AbelianInvariants",
    "smith_normal_form",
    "rank",
    "cokernel_invariants",
    "kernel_basis",
    "solve_integer",
    "solve_columns",
    "solve_with_kernel",
    "subgroup_membership",
    "column_span_basis",
    "preimage_kernel",
    "quotient_invariants",
    "homology_invariants",
    "smith_homology",
    "SubquotientMap",
    "induced_map_invariants",
    "hstack",
    "vstack",
    "block_diagonal",
]


class IntMatrix:
    """Dense integer matrix, row major.  Immutable: no code writes rows,
    cols or data after construction, so smith() can keep its result."""

    __slots__ = ("rows", "cols", "data", "_smith")

    def __init__(self, rows, cols, data):
        if len(data) != rows:
            raise DimensionMismatch("expected %d rows, got %d" % (rows, len(data)))
        for r in data:
            if len(r) != cols:
                raise DimensionMismatch("ragged row in %dx%d matrix" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = [list(r) for r in data]
        self._smith = None

    @classmethod
    def _adopt(cls, rows, cols, data):
        """Wrap rows that the caller built and hands over, without the copy
        and the shape check of the constructor."""
        self = cls.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.data = data
        self._smith = None
        return self

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, _identity_rows(n))

    @classmethod
    def from_columns(cls, columns, rows):
        data = [[col[i] for col in columns] for i in range(rows)]
        return cls(rows, len(columns), data)

    def smith(self):
        """SmithForm of this matrix, from smith_normal_form on the first call."""
        if self._smith is None:
            self._smith = smith_normal_form(self)
        return self._smith

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def columns(self):
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.data))

    def transpose(self):
        return IntMatrix(
            self.cols, self.rows, [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("vector length %d, expected %d" % (len(v), self.cols))
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.data)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("%dx%d times %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        # The nonzero (j, b) of row k of other, listed when a nonzero of
        # self first meets that row and kept for every later row of self:
        # listing every row up front costs more than the loop it saves on
        # the many 1x1 and 2x2 products of group homology.
        sparse = [None] * other.rows
        out = []
        for arow in self.data:
            orow = [0] * other.cols
            for k, a in enumerate(arow):
                if a:
                    terms = sparse[k]
                    if terms is None:
                        terms = sparse[k] = [(j, b) for j, b in enumerate(other.data[k]) if b]
                    for j, b in terms:
                        orow[j] += a * b
            out.append(orow)
        return IntMatrix._adopt(self.rows, other.cols, out)

    def __neg__(self):
        return IntMatrix(self.rows, self.cols, [[-x for x in r] for r in self.data])

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def is_zero(self):
        return all(x == 0 for r in self.data for x in r)

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, self.data)


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def hstack(a, b):
    if a.rows != b.rows:
        raise DimensionMismatch("hstack of %d and %d rows" % (a.rows, b.rows))
    return IntMatrix(a.rows, a.cols + b.cols, [ra + rb for ra, rb in zip(a.data, b.data)])


def vstack(a, b):
    if a.cols != b.cols:
        raise DimensionMismatch("vstack of %d and %d cols" % (a.cols, b.cols))
    return IntMatrix(a.rows + b.rows, a.cols, a.data + b.data)


def block_diagonal(M, k):
    """k copies of M down the diagonal."""
    data = []
    for c in range(k):
        left = [0] * (c * M.cols)
        right = [0] * ((k - 1 - c) * M.cols)
        data.extend(left + r + right for r in M.data)
    return IntMatrix._adopt(k * M.rows, k * M.cols, data)


class AbelianInvariants(FrozenValue):
    """A finitely generated abelian group: Z^free_rank + sum Z/torsion[i].

    torsion entries are > 1 and form a divisibility chain; unit factors
    are dropped, so the representation is canonical and comparable.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion):
        if free_rank < 0:
            raise HypothesisViolated("free rank %r is negative" % (free_rank,))
        if any(t < 2 for t in torsion):
            raise HypothesisViolated("torsion %r has an entry below 2" % (torsion,))
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise HypothesisViolated("torsion %r is not a divisibility chain" % (torsion,))
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @classmethod
    def _adopt(cls, free_rank, torsion):
        """The group of a Smith diagonal, without the checks of the
        constructor: the caller hands over free_rank >= 0 and a torsion
        tuple that is a divisibility chain of entries > 1."""
        self = object.__new__(cls)
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)
        return NotImplemented

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    @classmethod
    def from_diag(cls, free_rank, diag):
        """Canonicalize an unordered list of cyclic orders.

        Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).  Applying that to every
        pair i < j in turn leaves entry i dividing each later entry, so
        the entries end as a divisibility chain.  An order 0 is a free
        summand Z.
        """
        entries = []
        for d in diag:
            if d:
                entries.append(abs(d))
            else:
                free_rank += 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                a, b = entries[i], entries[j]
                g = math.gcd(a, b)
                entries[i], entries[j] = g, a // g * b
        return cls(free_rank, tuple(d for d in entries if d > 1))

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class SmithForm(FrozenValue):
    """U * A * V == diag(diag) padded by zeros, with U, V unimodular: the
    factored A, which answers lattice questions about A."""

    __slots__ = ("U", "V", "diag")

    def __init__(self, U, V, diag):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "diag", diag)

    def coordinates(self, cols):
        """Coordinates of each b in cols in the basis diag[i] * (U^-1)[:, i]
        of the column span of A, or None for a b that lies outside.  One
        product with U serves every column."""
        m = self.U.rows
        for b in cols:
            if len(b) != m:
                raise DimensionMismatch("rhs length %d, expected %d" % (len(b), m))
        r = len(self.diag)
        units = not r or self.diag[-1] == 1
        out = []
        for c in (self.U * IntMatrix.from_columns(cols, m)).columns():
            y = None if any(c[r:]) else list(c[:r])
            if y is not None and not units:
                for i, d in enumerate(self.diag):
                    q, rem = divmod(y[i], d)
                    if rem:
                        y = None
                        break
                    y[i] = q
            out.append(y)
        return out

    def contains(self, v):
        """Is v in the column span of A?"""
        return self.coordinates([v])[0] is not None

    def solve(self, cols):
        """One solution V (y, 0) per column, or None, from its span coordinates y."""
        ys = self.coordinates(cols)
        hits = [y for y in ys if y is not None]
        r = len(self.diag)
        xs = iter((_leading_columns(self.V, r) * IntMatrix.from_columns(hits, r)).columns())
        return [None if y is None else next(xs) for y in ys]

    def kernel(self):
        """Columns form a basis of ker(A): the last columns of V."""
        r = len(self.diag)
        return IntMatrix._adopt(self.V.rows, self.V.cols - r, [row[r:] for row in self.V.data])

    def quotient(self, sub_gens):
        """Invariants of span(A) / span(sub_gens): the relations are the
        coordinates of sub_gens in the span basis."""
        cols = self.coordinates(sub_gens.columns())
        if None in cols:
            raise HypothesisViolated("sub lattice is not contained in the big lattice")
        return cokernel_invariants(IntMatrix.from_columns(cols, len(self.diag)))


def smith_normal_form(A):
    """Smith normal form with unimodular transforms.

    Returns a SmithForm whose diag entries are positive and satisfy
    diag[i] | diag[i+1].  Deterministic: the pivot is always the entry of
    minimal absolute value, ties broken by position.
    """
    m, n = A.rows, A.cols
    d = [list(r) for r in A.data]
    u = _identity_rows(m)
    v = _identity_rows(n)
    snf_inplace(d, u, v, m, n)
    diag = []
    for i in range(min(m, n)):
        if d[i][i]:
            diag.append(d[i][i])
        else:
            break
    return SmithForm(
        U=IntMatrix._adopt(m, m, u),
        V=IntMatrix._adopt(n, n, v),
        diag=tuple(diag),
    )


def rank(A):
    return len(A.smith().diag)


def cokernel_invariants(A):
    """Invariants of Z^rows / column-span(A)."""
    diag = A.smith().diag
    return AbelianInvariants._adopt(A.rows - len(diag), tuple([d for d in diag if d > 1]))


def kernel_basis(A):
    """Columns form a basis of ker(A) in Z^cols.

    The kernel of an integer matrix is a saturated sublattice and the
    returned columns are a basis of it (they are columns of a unimodular
    transform, hence primitive).
    """
    return A.smith().kernel()


def _leading_columns(M, r):
    return IntMatrix._adopt(M.rows, r, [row[:r] for row in M.data])


def solve_integer(A, b):
    """One integer solution of A x = b, or None.

    The solution returned is the one with zero free coordinates in the
    Smith-reduced coordinate system, which makes it deterministic.
    """
    return solve_columns(A, [b])[0]


def solve_columns(A, cols):
    """solve_integer for every right-hand side in cols, reducing A once.

    Returns a list holding one solution tuple, or None, per column.
    """
    return A.smith().solve(cols)


def solve_with_kernel(A, b):
    """(particular solution or None, kernel basis of A)."""
    s = A.smith()
    return s.solve([b])[0], s.kernel()


def subgroup_membership(gens, v):
    """Is v in the subgroup of Z^rows generated by the columns of gens?"""
    return gens.smith().contains(v)


def column_span_basis(A):
    """A basis (as columns) of the lattice spanned by the columns of A.

    A V = U^-1 D, so the first rank columns of A V are diag[i] times the
    columns of U^-1, a basis of the span.
    """
    s = A.smith()
    return A * _leading_columns(s.V, len(s.diag))


def preimage_kernel(M, L):
    """Basis of the lattice {x : M x in column-span(L)}.

    M is a x b, L is a x l; the result is b x s with basis columns.
    """
    stacked = hstack(M, L)
    k = kernel_basis(stacked)
    proj = IntMatrix(M.cols, k.cols, k.data[: M.cols])
    return column_span_basis(proj)


def quotient_invariants(big_gens, sub_gens):
    """Invariants of span(big_gens) / span(sub_gens).

    Requires span(sub_gens) <= span(big_gens); raises otherwise since a
    failed exact division here means a logic error upstream.
    """
    return big_gens.smith().quotient(sub_gens)


class SubquotientMap(FrozenValue):
    """Kernel and cokernel invariants of an induced map on subquotients.

    The domain is span(z1)/span(b1) inside Z^n1, the codomain
    span(z2)/span(b2) inside Z^n2, and the map is induced by an integer
    matrix that carries z1 into span(z2) and b1 into span(b2).
    """

    __slots__ = ("kernel", "cokernel")

    def __init__(self, kernel, cokernel):
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "cokernel", cokernel)

    @property
    def surjective(self):
        return self.cokernel.is_trivial

    @property
    def injective(self):
        return self.kernel.is_trivial


def induced_map_invariants(A, z1, b1, z2, b2):
    """Induced map span(z1)/span(b1) -> span(z2)/span(b2) under x -> A x.

    Checks that A maps the domain data into the codomain data and
    returns kernel and cokernel invariants.
    """
    img_mat = A * z1
    try:
        coker = quotient_invariants(hstack(z2, b2), hstack(img_mat, b2))
    except HypothesisViolated:
        raise HypothesisViolated("map does not carry cycles into cycles") from None
    if None in solve_columns(b2, (A * b1).columns()):
        raise HypothesisViolated("map does not carry boundaries into boundaries")
    # kernel: solutions of A z1 y in span(b2), modulo b1 written in z1 coords
    sub_cols = solve_columns(z1, b1.columns())
    if None in sub_cols:
        raise HypothesisViolated("sub lattice is not inside the cycle lattice")
    kernel = quotient_invariants(preimage_kernel(img_mat, b2), IntMatrix.from_columns(sub_cols, z1.cols))
    return SubquotientMap(kernel, coker)


def homology_invariants(d_out, d_in, dim):
    """ker(d_out) / im(d_in) at a chain group of rank dim.

    d_out maps the group down (dim columns), d_in maps into it (dim
    rows); either may be None for a zero map.  The shapes and
    d_out . d_in = 0 are checked, for callers whose matrices are not
    known to form a complex: library users (fourfold exports it) and the
    bar oracle, which assembles its boundaries from the group law.  The
    boundaries of a LambdaComplex are a complex by construction, so
    complexes reads their homology through smith_homology, which checks
    nothing.
    """
    if d_out is not None and d_out.cols != dim:
        raise DimensionMismatch("boundary out has %d cols, chain rank %d" % (d_out.cols, dim))
    if d_in is not None and d_in.rows != dim:
        raise DimensionMismatch("boundary in has %d rows, chain rank %d" % (d_in.rows, dim))
    if d_out is not None and d_in is not None and not (d_out * d_in).is_zero():
        raise HypothesisViolated("image is not contained in the kernel; not a complex")
    return smith_homology(d_out, d_in, dim)


def smith_homology(d_out, d_in, dim):
    """homology_invariants with the shapes and d_out . d_in = 0 taken on
    trust, read off the kept Smith diagonals alone: only for matrices that
    form a complex by construction.

    Z^dim / ker(d_out) embeds in the free target of d_out, so
    coker(d_in) = H + Z^rank(d_out): the torsion of H is the Smith
    diagonal of d_in without its units, and H has free rank
    dim - rank(d_out) - rank(d_in).
    """
    free = dim - (rank(d_out) if d_out is not None else 0)
    if d_in is None:
        return AbelianInvariants._adopt(free, ())
    diag = d_in.smith().diag
    return AbelianInvariants._adopt(free - len(diag), tuple([d for d in diag if d > 1]))
