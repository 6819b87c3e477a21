"""Modules over Z[pi], Hom and Ext^1, pi_2 extension classes, E_m torsion.

Everything is reduced to integer lattice arithmetic through the regular
representation: a module presented over the group ring of a finite group
expands to a sublattice of Z^(k*|pi|) stable under the group action, and
Hom / Ext computations become kernel, image and membership questions for
integer matrices.  FPModule owns the coordinates of N^k and the
subquotient ker / (im + relations) cut from them, which module_homology,
hom_lambda and ExtContext all read.  A value matrix in Hom(R^k, N) is
flattened by its column coordinates (hom_vec), so precomposing with a is
the coordinate map of a^T.  Free covers of kernels and lifts over the
ring come from RingMatrix.kernel and RingMatrix.solve.  Kernel and
homology modules are presented on ring generators spun from the integer
kernel basis (groupring.spin_generators), and their relations are spun
the same way, so a presentation has a handful of generators and
relations instead of one per lattice basis vector.  Class equality is
always decided by exact membership in the coboundary lattice, never by
comparing invariants.  An ExtContext builds that lattice and the
ambiguity lattice of the cocycle check once, and each keeps its own
Smith form (IntMatrix.smith).

What holds by construction is not re-checked at run time.  Every
LambdaComplex has d.d = 0, so d_3 lands in ker d_2, the pi_2 sequence
is exact (pi2_sequence_check) and psi_chase stays in ker d_2; the pi_2
class representative d_3 is a cocycle because the resolution extends it
by ker d_3; and em_torsion reads E_m off the kept Smith diagonal of D,
so every twist of one family matrix shares one reduction.
Hypotheses that come from the caller, such as the cycles and rows that
psi_chase is given, are still checked.
"""

import functools
import math

from fourfold.errors import (
    ContextMismatch,
    DimensionMismatch,
    GroupMismatch,
    HypothesisViolated,
    InfiniteGroup,
    NotACycle,
)
from fourfold.groupring import RingMatrix, ring_matrix_from_coordinates, spin_generators
from fourfold.intmat import (
    AbelianInvariants,
    IntMatrix,
    block_diagonal,
    cokernel_invariants,
    hstack,
    kernel_basis,
    preimage_kernel,
    quotient_invariants,
    solve_columns,
    subgroup_membership,
)
from fourfold.values import FrozenValue, Value

__all__ = [
    "FPModule",
    "fpmodule_free",
    "fpmodule_cokernel",
    "fpmodule_kernel",
    "fpmodule_homology",
    "HomGroup",
    "hom_lambda",
    "hom_vec",
    "ext1",
    "ext_vanishing_check",
    "ExtContext",
    "ExtClass",
    "pi2_extension",
    "pi2_sequence_check",
    "psi_chase",
    "baer_sum",
    "EmFamily",
    "em_torsion",
    "em_closed_form",
    "recover_m",
]


class FPModule:
    """Left module over Z[pi] given as coker of a matrix of relations.

    relations is s x m over the ring: the module is Z[pi]^s / (column
    span).  Modules arising as kernels or homology inside a free module
    also carry gen_vecs, a ring matrix whose s columns are the generators
    in the ambient free module: ring generators chosen by spinning
    (groupring.spin_generators), not a Z-basis of the lattice they span.

    It owns the coordinates of M^k (k blocks of s*|pi|) and the
    Subquotient of a complex of them, which Hom, Ext^1 and homology with
    coefficients in M all read.
    """

    def __init__(self, group, relations, gen_vecs=None):
        if not group.is_finite:
            raise InfiniteGroup("finitely presented modules need a finite group")
        self.group = group
        self.relations = relations
        self.gen_vecs = gen_vecs

    @property
    def num_gens(self):
        return self.relations.rows

    @property
    def rel_lattice(self):
        """Integer expansion of the relation span inside Z^(s*|pi|)."""
        return self.relations.expand()

    def abelian_invariants(self):
        return cokernel_invariants(self.rel_lattice)

    def require_group(self, group):
        if group is not self.group and group != self.group:
            raise GroupMismatch("data over %s, module over %s" % (group, self.group))

    def coordinate_map(self, d):
        """The map M^d.cols -> M^d.rows that the ring matrix d induces on
        module coordinates: the expansion of d (x) I_s."""
        self.require_group(d.group)
        return d.kron_identity(self.num_gens).expand()

    def relation_lattice(self, k):
        """The relations of M^k: k copies of rel_lattice down the diagonal."""
        return block_diagonal(self.rel_lattice, k)

    def subquotient(self, d_out, d_in, rank):
        return Subquotient(self, d_out, d_in, rank)

    def __repr__(self):
        return "FPModule(%s, %d gens, %d relations)" % (self.group, self.num_gens, self.relations.cols)


class Subquotient:
    """ker(d_out) / (im(d_in) + relations) at M^rank, where d_out maps M^rank
    down, d_in maps into it, and either may be None.  Each lattice is
    built on first use and kept, so a caller builds only what it reads."""

    def __init__(self, module, d_out, d_in, rank):
        self.module, self.d_out, self.d_in, self.rank = module, d_out, d_in, rank

    @functools.cached_property
    def cycle_data(self):
        """(coordinate map of d_out, relation lattice of its target)."""
        return self.module.coordinate_map(self.d_out), self.module.relation_lattice(self.d_out.rows)

    @functools.cached_property
    def cycles(self):
        """Basis of the cycle lattice {x : d_out x in relations}; d_out is
        not None (with no d_out, invariants reads a cokernel instead)."""
        return preimage_kernel(*self.cycle_data)

    @functools.cached_property
    def boundaries(self):
        """The image columns of d_in, then the relations."""
        rel = self.module.relation_lattice(self.rank)
        return rel if self.d_in is None else hstack(self.module.coordinate_map(self.d_in), rel)

    @functools.cached_property
    def invariants(self):
        if self.d_out is None:
            return cokernel_invariants(self.boundaries)
        return quotient_invariants(self.cycles, self.boundaries)


def fpmodule_free(group, rank):
    return FPModule(group, RingMatrix.zeros(group, rank, 0))


def fpmodule_cokernel(rel):
    return FPModule(rel.group, rel)


def fpmodule_kernel(d):
    """ker of a ring matrix d, presented on ring generators spun from the
    integer kernel basis.

    The integer kernel of the expansion is a pi-stable lattice, the
    expansion of the ring kernel; the generators are the basis columns
    that spinning keeps, and the relations are spun the same way from
    the integer kernel of the generator matrix.
    """
    k = kernel_basis(d.expand())
    return _module_from_gens(d.group, d.cols, k, None)


def fpmodule_homology(d_out, d_in):
    """ker(d_out) / im(d_in) as a module over the group ring.

    Generators are spun from the integer kernel basis of d_out, and the
    relations from the lattice of generator combinations that land in
    im(d_in).
    """
    k = kernel_basis(d_out.expand())
    return _module_from_gens(d_out.group, d_out.cols, k, d_in.expand())


def _module_from_gens(group, ambient_rank, basis, modulo):
    """The module generated by the pi-stable lattice with Z-basis basis
    inside Z[pi]^ambient_rank, modulo the lattice modulo (None for 0).

    Generators and relations are both spun (groupring.spin_generators):
    the relation lattice is every integer combination of the generator
    orbits that vanishes, or lands in modulo."""
    gens = spin_generators(group, ambient_rank, basis)
    lift = gens.expand()
    rel_basis = kernel_basis(lift) if modulo is None else preimage_kernel(lift, modulo)
    return FPModule(group, spin_generators(group, gens.cols, rel_basis), gen_vecs=gens)


def hom_vec(f, module):
    """Flatten a value matrix in Hom(R^k, N) to integer coordinates."""
    if f.rows != module.num_gens:
        raise DimensionMismatch("value matrix has %d gen rows, module has %d" % (f.rows, module.num_gens))
    return tuple(x for col in f.column_coordinates() for x in col)


class HomGroup(Value):
    __slots__ = ("invariants", "generators", "lift_lattice")

    def __init__(self, invariants, generators, lift_lattice=None):
        self.invariants = invariants
        self.generators = generators
        self.lift_lattice = lift_lattice

    def __repr__(self):
        return "%s(invariants=%r, generators=%r)" % (type(self).__qualname__, self.invariants, self.generators)

    def contains(self, f, module):
        return subgroup_membership(self.lift_lattice, hom_vec(f, module))


def hom_lambda(m, n):
    """Hom over the group ring between two presented modules.

    Returns the underlying abelian group together with generator value
    matrices (columns express images of the generators of m in the
    generators of n).
    """
    hom = n.subquotient(m.relations.transpose(), None, m.num_gens)
    block = n.num_gens * n.group.order()
    gens = []
    for vec in hom.cycles.columns():
        cols = [vec[j * block : (j + 1) * block] for j in range(m.num_gens)]
        gens.append(ring_matrix_from_coordinates(n.group, cols, n.num_gens))
    return HomGroup(hom.invariants, gens, hom.cycles)


def ext1(m, n):
    """Ext^1 over the group ring via a length-2 partial free resolution.

    The resolution of m is P_1 = R^(cols of relations) --relations--> P_0;
    P_2 is a free cover of the kernel of that map (RingMatrix.kernel).
    """
    return ExtContext(n, m.relations, m.relations.kernel()).ext_invariants()


def ext_vanishing_check(c):
    """Does Ext^1 of the second twisted cohomology of a 2-complex into the
    free module of rank one vanish?  True for every finite-group
    presentation complex; computed, not assumed."""
    dual_d2 = c.d(2).transpose_involute(c.w)
    m = fpmodule_cokernel(dual_d2)
    n = fpmodule_free(c.group, 1)
    return ext1(m, n).is_trivial


class ExtContext:
    """Coordinates for extension classes of a fixed pair (target, source).

    Classes are value matrices in Hom(P_1, source) for a chosen partial
    resolution P_2 -> P_1 -> P_0 of the target; cochains cuts cocycles mod
    coboundaries (image of Hom(P_0, source) plus per-column ambiguity).
    """

    def __init__(self, source, p1, p2):
        self.source = source
        self.p1 = p1
        self.p2 = p2
        self.hom_rank = p1.cols
        self.cochains = source.subquotient(p2.transpose(), p1.transpose(), p1.cols)

    def is_coboundary(self, vec):
        """Is vec in the coboundary lattice?  One span-coordinate step."""
        return self.cochains.boundaries.smith().contains(vec)

    def check_cocycle(self, vec):
        """Does vec precomposed with p2 lie in the ambiguity lattice?  That
        lattice is reduced once per context, like the coboundary lattice."""
        pre, amb = self.cochains.cycle_data
        return amb.smith().contains(pre.mul_vec(vec))

    def ext_invariants(self):
        """Invariants of cocycles mod coboundaries."""
        return self.cochains.invariants

    def make_class(self, vec):
        vec = tuple(vec)
        dim = self.hom_rank * self.source.num_gens * self.source.group.order()
        if len(vec) != dim:
            raise DimensionMismatch("class vector length %d, expected %d" % (len(vec), dim))
        return ExtClass(self, vec)


class ExtClass:
    """An element of Ext^1 in the coordinates of a fixed ExtContext."""

    def __init__(self, context, rep):
        self.context = context
        self.rep = tuple(rep)

    def is_trivial(self):
        return self.context.is_coboundary(self.rep)

    def same_class(self, other):
        if self.context is not other.context:
            raise ContextMismatch("classes live over different contexts")
        return self.context.is_coboundary(tuple(a - b for a, b in zip(self.rep, other.rep)))

    def scale(self, k):
        return ExtClass(self.context, tuple(k * x for x in self.rep))

    def shift_by_coboundary(self, coeffs):
        """Add an integer combination of coboundary lattice columns."""
        shift = self.context.cochains.boundaries.mul_vec(coeffs)
        return ExtClass(self.context, tuple(a + b for a, b in zip(self.rep, shift)))


def baer_sum(e1, e2):
    """Sum of extension classes: addition of value-matrix representatives."""
    if e1.context is not e2.context:
        raise ContextMismatch("Baer sum needs a common context")
    return ExtClass(e1.context, tuple(a + b for a, b in zip(e1.rep, e2.rep)))


def pi2_extension(c):
    """The class of 0 -> ker d_2 -> C_2 (+) H_2 -> coker d_3 -> 0.

    Represented by d_3 viewed as a value matrix in Hom(C_3, ker d_2); the
    resolution of coker d_3 is C_3 -> C_2 extended by a free cover p_2 of
    ker d_3.  The representative is a cocycle by construction: rep . p_2 =
    d_3 . p_2 = 0; and d_3 lies in ker d_2 because c is a complex.

    Raises InfiniteGroup for a Laurent group before any work.
    """
    if not c.group.is_finite:
        raise InfiniteGroup("the pi_2 extension class needs a finite group")
    d2 = c.d(2)
    d3 = c.d(3)
    source = fpmodule_kernel(d2)
    ctx = ExtContext(source, d3, d3.kernel())
    return ctx.make_class(_vec_in_source_coords(source, d3.column_coordinates()))


def _vec_in_source_coords(source, ambient_cols):
    """Write ambient integer columns as ring combinations of the generators
    of a kernel module, flattened to Hom coordinates of the value matrix:
    the integer solutions against the kept expansion of the generators,
    one after another."""
    sols = solve_columns(source.gen_vecs.expand(), ambient_cols)
    if None in sols:
        raise NotACycle("a column is not in the kernel module")
    return tuple(x for col in sols for x in col)


def pi2_sequence_check(c):
    """Exactness of 0 -> ker d_2 -> C_2 (+) H_2 -> coker d_3 -> 0 over Z.

    It is exact exactly when d_2 . d_3 = 0, which the constructor of c
    has checked.  Let K be an integer basis of ker d_2 (of the
    expansion), and write d_3 = K X.
    The middle term is Z^C_2 (+) Z^s modulo {(0, X y)}, the first map is
    iota(a) = (K a, -a) and the second is (c, h) |-> c + K h mod im d_3.
      - iota is injective: (K a, -a) = (0, X y) forces K a = 0, and K
        has full column rank, so a = 0.
      - The composite is K a - K a = 0, and the second map is onto,
        since (c, 0) |-> c.
      - If c + K h = d_3 y = K X y, then c = K (X y - h), so
        (c, h) = iota(X y - h) + (0, X y) lies in the image of iota.

    Raises DegreeOutOfRange for a complex of top degree below 2, then
    InfiniteGroup for a Laurent group, whose modules are not lattices,
    then DegreeOutOfRange for top degree 2.
    """
    c.d(2)
    if not c.group.is_finite:
        raise InfiniteGroup("the pi_2 sequence is checked over finite groups only")
    c.d(3)
    return True


def psi_chase(resolution, c2, w, z, rng=None):
    """Chase a twisted 4-cycle of the group through the double complex of
    a resolution against a presentation 2-complex.

    resolution: exact complex of free modules over a finite group (degree
    at least 4); c2: a 2-complex with the same group whose universal
    cover has vanishing first homology; z: integer chain on the rank of
    degree 4 of the resolution, a cycle for the w-twisted augmented
    boundary.  The result is an extension class in Hom(D^1, ker d_2)
    coordinates.  When rng is given, every lift is shifted by a random
    kernel element; the class of the output must not change.  A 2-complex
    or character over another group is a GroupMismatch.
    """
    group = resolution.group
    if c2.group is not group and c2.group != group:
        raise GroupMismatch("2-complex over %s, resolution over %s" % (c2.group, group))
    d4 = resolution.d(4).augment(w)
    a4 = resolution.ranks[4]
    if len(z) != a4:
        raise DimensionMismatch("cycle length %d, rank of degree 4 is %d" % (len(z), a4))
    if any(v != 0 for v in d4.mul_vec(z)):
        raise NotACycle("input chain is not a cycle for the twisted boundary")
    # chains on D_p (x) C_q are ring matrices with a row per C-index and a
    # column per D-index: d^C acts on the left, delta (x) id is F * delta^T
    dt = {i: resolution.d(i).transpose_involute(w) for i in (2, 3, 4)}

    c_d1 = c2.d(1)
    c_d2 = c2.d(2)
    if c2.ranks[0] != 1:
        raise DimensionMismatch("chase needs a presentation complex with one 0-cell")
    ctx = _psi_context(resolution, c2, w)

    def lift(cmat, rhs):
        """A solution of cmat * X == rhs, shifted by a random kernel
        combination when rng is given."""
        x = cmat.solve(rhs)
        if x is None:
            raise NotACycle("no lift exists; input rows are not exact")
        if rng is not None:
            k = cmat.kernel()
            coeffs = [[rng.randint(-2, 2) for _ in range(k.cols)] for _ in range(x.cols)]
            x = x + k * RingMatrix.from_int_matrix(group, IntMatrix.from_columns(coeffs, k.cols))
        return x

    # row 4: z on D_4 (x) C_0, down to row 3, across id (x) d_1, and so on
    f40 = RingMatrix.from_int_matrix(group, IntMatrix(1, a4, [[int(x) for x in z]]))
    f31 = lift(c_d1, f40 * dt[4])
    f22 = lift(c_d2, f31 * dt[3])
    # the columns of v lie in ker d_2: c_d2 * v = f31 * dt[3] * dt[2] = 0
    v = f22 * dt[2]
    rep = _vec_in_source_coords(ctx.source, v.column_coordinates())
    if not ctx.check_cocycle(rep):
        raise NotACycle("chase output is not a cocycle for the dual boundary")
    return ctx.make_class(rep)


_psi_contexts = {}


def _matrix_signature(rm):
    return (
        rm.rows,
        rm.cols,
        tuple(tuple(tuple(e.sorted_terms()) for e in row) for row in rm.entries),
    )


def _psi_context(resolution, c2, w):
    """Shared coordinates for classes chased against the same data.

    Keyed structurally so rebuilding an equal complex lands in the same
    context and classes stay comparable."""
    key = (
        resolution.group,
        w.signs,
        _matrix_signature(resolution.d(1)),
        _matrix_signature(resolution.d(2)),
        _matrix_signature(c2.d(2)),
    )
    ctx = _psi_contexts.get(key)
    if ctx is None:
        source = fpmodule_kernel(c2.d(2))
        d1t = resolution.d(1).transpose_involute(w)
        d2t = resolution.d(2).transpose_involute(w)
        ctx = ExtContext(source, d2t, d1t)
        _psi_contexts[key] = ctx
    return ctx


class EmFamily(FrozenValue):
    """Shape data of an augmented third boundary map, from its kept Smith form.

    a_free: nullity; deltas: all diagonal entries of the Smith form
    (including units); b: corank of the target.  Every twist and every
    candidate over one matrix reads this one reduction (IntMatrix.smith).
    """

    __slots__ = ("a_free", "deltas", "b")

    def __init__(self, a_free, deltas, b):
        object.__setattr__(self, "a_free", a_free)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_matrix(cls, d3_aug):
        s = d3_aug.smith()
        r = len(s.diag)
        return cls(d3_aug.cols - r, s.diag, d3_aug.rows - r)


def em_closed_form(fam, m):
    """Invariants of the twisted coefficient quotient for twisting number m.

    For m != 0: (Z/|m|)^a_free + sum Z/gcd(delta_i, m) + free part b + k;
    for m == 0 the deltas survive as torsion and the free part grows by
    a_free.  Symmetric in m -> -m.
    """
    k = len(fam.deltas)
    if m == 0:
        return AbelianInvariants.from_diag(fam.a_free + fam.b + k, list(fam.deltas))
    mm = abs(m)
    orders = [mm] * fam.a_free + [math.gcd(d, mm) for d in fam.deltas]
    return AbelianInvariants.from_diag(fam.b + k, orders)


def em_torsion(d3_aug, m):
    """Invariants of (target (+) source) / {(D a, m a)} for D = d3_aug.

    With U D V = diag(delta_1..delta_r, 0...), the relations split into
    (delta_j f_j, m e_j) for j <= r and (0, m e_j) beyond: em_closed_form.
    D keeps its Smith form, so all twists of one matrix cost one reduction.
    """
    return em_closed_form(EmFamily.from_matrix(d3_aug), m)


def recover_m(inv, fam):
    """Candidate |m| values producing the given invariants over a family.

    Requires a_free >= 1.  The result is a set: a singleton when the
    torsion pins m down, {0, 1} when the torsion is trivial and both the
    zero and unit twists match (the projectivity-ambiguous case), empty
    when no twisting number fits.
    """
    if fam.a_free < 1:
        raise HypothesisViolated("family has no free summand; m is not determined")
    tors = inv.torsion
    candidates = {0, 1}
    if tors:
        candidates.add(tors[-1])
    return {c for c in sorted(candidates) if em_closed_form(fam, c).torsion == tors}
