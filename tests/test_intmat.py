"""Exact linear algebra over Z.

The Smith form is checked against an independent oracle: the k-th
determinantal divisor (gcd of all k x k minors) computed by brute-force
cofactor expansion, and the transforms are unimodular by sympy's
determinant.  Integer solving is checked against exhaustive
search over a coefficient box.
"""

import itertools
import math
import random

import pytest
from sympy import Matrix

from fourfold.intmat import (
    AbelianInvariants,
    IntMatrix,
    cokernel_invariants,
    column_span_basis,
    homology_invariants,
    hstack,
    induced_map_invariants,
    kernel_basis,
    preimage_kernel,
    quotient_invariants,
    rank,
    smith_normal_form,
    solve_integer,
    solve_with_kernel,
    subgroup_membership,
)
from fourfold.errors import DimensionMismatch, HypothesisViolated


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def snf_diag_oracle(a):
    """Smith diagonal from determinantal divisors, no row reduction at all."""
    m, n = a.rows, a.cols
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[a.data[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det_cofactor(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def brute_solve(a, b, bound):
    for x in itertools.product(range(-bound, bound + 1), repeat=a.cols):
        if list(a.mul_vec(list(x))) == list(b):
            return list(x)
    return None


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_snf_matches_determinantal_divisors():
    rng = random.Random(20240901)
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        s = smith_normal_form(a)
        assert list(s.diag) == snf_diag_oracle(a)


def test_snf_transform_identities():
    rng = random.Random(77)
    for _ in range(250):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n, -30, 30)
        s = smith_normal_form(a)
        assert abs(Matrix(s.U.data).det()) == 1
        assert abs(Matrix(s.V.data).det()) == 1
        for i, d in enumerate(s.diag):
            assert d > 0
            if i:
                assert d % s.diag[i - 1] == 0
        # U a V is diagonal with exactly the listed entries
        reduced = s.U * a * s.V
        for i in range(m):
            for j in range(n):
                expect = s.diag[i] if i == j and i < len(s.diag) else 0
                assert reduced.data[i][j] == expect


def test_snf_fixed_values():
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.diag == (2, 4)
    s = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.diag == (1, 6)
    s = smith_normal_form(IntMatrix.zeros(3, 2))
    assert s.diag == ()
    s = smith_normal_form(IntMatrix.identity(4))
    assert s.diag == (1, 1, 1, 1)


def test_solve_integer_against_box_search():
    rng = random.Random(31337)
    hits = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = random_matrix(rng, m, n, -4, 4)
        b = [rng.randint(-6, 6) for _ in range(m)]
        x = solve_integer(a, b)
        ref = brute_solve(a, b, 8)
        if x is not None:
            assert list(a.mul_vec(list(x))) == b
        if ref is not None:
            # solvable rhs must be recognized as such
            assert x is not None
            hits += 1
    assert hits > 20  # the sweep actually exercised solvable systems


def test_solve_unsolvable_is_none():
    a = IntMatrix.from_rows([[2, 4], [0, 0]])
    assert solve_integer(a, [1, 0]) is None
    assert solve_integer(a, [0, 3]) is None
    assert solve_integer(a, [6, 0]) == (3, 0) or solve_integer(a, [6, 0]) is not None


def test_solve_rhs_length_checked():
    a = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(DimensionMismatch):
        solve_integer(a, [1, 2])


def test_solve_with_kernel_parametrizes_all_solutions():
    rng = random.Random(5)
    a = IntMatrix.from_rows([[2, 4, 6], [1, 2, 3]])
    x0, kb = solve_with_kernel(a, [2, 1])
    assert x0 is not None
    assert list(a.mul_vec(x0)) == [2, 1]
    assert kb.cols == 2
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in range(kb.cols)]
        x = list(x0)
        for j, c in enumerate(coeffs):
            col = kb.column(j)
            for i in range(len(x)):
                x[i] += c * col[i]
        assert list(a.mul_vec(x)) == [2, 1]


def test_kernel_basis_spans_and_is_saturated():
    rng = random.Random(99)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n, -5, 5)
        k = kernel_basis(a)
        assert k.cols == n - rank(a)
        for j in range(k.cols):
            assert list(a.mul_vec(k.column(j))) == [0] * m
    # every small kernel vector is an integer combination of the basis
    a = IntMatrix.from_rows([[1, 2, 3]])
    k = kernel_basis(a)
    for x in itertools.product(range(-4, 5), repeat=3):
        if list(a.mul_vec(list(x))) == [0]:
            assert subgroup_membership(k, list(x))


def test_cokernel_invariants():
    assert cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 4]])) == AbelianInvariants(0, (2, 4))
    assert cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 3]])) == AbelianInvariants(0, (6,))
    assert cokernel_invariants(IntMatrix.zeros(2, 1)) == AbelianInvariants(2, ())
    assert cokernel_invariants(IntMatrix.identity(3)) == AbelianInvariants(0, ())
    assert str(AbelianInvariants(1, (2, 4))) == "Z + Z/2 + Z/4"
    assert str(AbelianInvariants(0, ())) == "0"


def test_abelian_invariants_canonical():
    assert AbelianInvariants.from_diag(0, [3, 2]) == AbelianInvariants(0, (6,))
    assert AbelianInvariants.from_diag(1, [1, 1, 5]) == AbelianInvariants(1, (5,))
    with pytest.raises(HypothesisViolated):
        AbelianInvariants(0, (4, 2))
    a = AbelianInvariants(0, (2,))
    b = AbelianInvariants(1, (2,))
    assert AbelianInvariants.from_diag(a.free_rank + b.free_rank, a.torsion + b.torsion) == AbelianInvariants(1, (2, 2))
    assert a.order() == 2
    assert b.order() is None
    assert a.is_finite and not b.is_finite


@pytest.mark.parametrize("free, torsion", [(0, (1,)), (0, (0,)), (-2, ()), (1, (2, -2)), (0, (1, 3))])
def test_abelian_invariants_refuse_non_canonical_entries(free, torsion):
    # Z/1 would compare unequal to the trivial group, Z/0 would be Z with
    # order 0, and Z^-2 is no group
    with pytest.raises(HypothesisViolated):
        AbelianInvariants(free, torsion)
    assert AbelianInvariants.from_diag(0, [1]) == AbelianInvariants(0, ())
    assert AbelianInvariants.from_diag(0, [0]) == AbelianInvariants(1, ())


def test_column_span_basis_preserves_lattice():
    rng = random.Random(12)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(0, 4)
        a = random_matrix(rng, m, n, -6, 6)
        basis = column_span_basis(a)
        assert rank(basis) == basis.cols == rank(a)
        for j in range(n):
            assert subgroup_membership(basis, a.column(j))
        for j in range(basis.cols):
            assert subgroup_membership(a, basis.column(j))


def test_preimage_kernel():
    # x such that M x lands in 2 Z^2
    m = IntMatrix.from_rows([[1, 0], [0, 1]])
    l = IntMatrix.from_rows([[2, 0], [0, 2]])
    pre = preimage_kernel(m, l)
    assert rank(pre) == 2
    assert quotient_invariants(IntMatrix.identity(2), pre) == AbelianInvariants(0, (2, 2))
    # kernel part survives: M = projection, anything in ker M qualifies
    m = IntMatrix.from_rows([[1, 0]])
    l = IntMatrix.from_rows([[3]])
    pre = preimage_kernel(m, l)
    assert subgroup_membership(pre, [0, 1])
    assert subgroup_membership(pre, [3, 0])
    assert not subgroup_membership(pre, [1, 0])


def test_quotient_invariants():
    big = IntMatrix.identity(2)
    sub = IntMatrix.from_rows([[2, 0], [0, 6]])
    assert quotient_invariants(big, sub) == AbelianInvariants(0, (2, 6))
    # index 5 sublattice of a rank-1 lattice inside Z^2
    big = IntMatrix.from_rows([[1], [1]])
    sub = IntMatrix.from_rows([[5], [5]])
    assert quotient_invariants(big, sub) == AbelianInvariants(0, (5,))
    with pytest.raises(HypothesisViolated):
        quotient_invariants(sub, big)


def test_homology_invariants_chain_rules():
    # 0 -> Z --2--> Z -> 0 at the middle spot
    d_out = None
    d_in = IntMatrix.from_rows([[2]])
    assert homology_invariants(d_out, d_in, 1) == AbelianInvariants(0, (2,))
    # circle: single 0-cell, single 1-cell, zero boundary
    assert homology_invariants(None, IntMatrix.zeros(1, 1), 1) == AbelianInvariants(1, ())
    with pytest.raises(HypothesisViolated):
        # d_out . d_in != 0 must be rejected
        homology_invariants(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]), 1)


def test_induced_map_invariants_small_cases():
    # multiplication by 2 on Z: kernel 0, cokernel Z/2
    a = IntMatrix.from_rows([[2]])
    z = IntMatrix.identity(1)
    b = IntMatrix.zeros(1, 0)
    m = induced_map_invariants(a, z, b, z, b)
    assert m.kernel.is_trivial
    assert m.cokernel == AbelianInvariants(0, (2,))
    assert not m.surjective and m.injective
    # identity on Z/4 -> Z/2 reduction: kernel Z/2, cokernel 0
    a = IntMatrix.from_rows([[1]])
    z1 = IntMatrix.identity(1)
    b1 = IntMatrix.from_rows([[4]])
    b2 = IntMatrix.from_rows([[2]])
    m = induced_map_invariants(a, z1, b1, z1, b2)
    assert m.kernel == AbelianInvariants(0, (2,))
    assert m.surjective
    with pytest.raises(HypothesisViolated):
        # x -> x does not carry Z into 3 Z as a boundary-level map
        induced_map_invariants(IntMatrix.from_rows([[1]]), z1, z1, z1, IntMatrix.from_rows([[3]]))


def test_matrix_arithmetic_basics():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a * b == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert (-a).data[0][0] == -1
    assert a.transpose() == IntMatrix.from_rows([[1, 3], [2, 4]])
    assert hstack(a, b).cols == 4
    assert list(a.mul_vec([1, 0])) == [1, 3]
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, [[1, 2], [3]])


def dense_product(a, b, cols):
    """The textbook triple loop, the oracle for IntMatrix.__mul__."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(len(a))]


def test_product_matches_the_dense_triple_loop():
    rng = random.Random(7)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (4, 4, 1)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(60)]
    for n, m, k in shapes:
        for density in (0.0, 0.2, 1.0):

            def entries(rows, cols):
                return [
                    [rng.randint(-2**70, 2**70) if rng.random() < density else 0 for _ in range(cols)]
                    for _ in range(rows)
                ]

            a, b = entries(n, m), entries(m, k)
            prod = IntMatrix(n, m, a) * IntMatrix(m, k, b)
            assert (prod.rows, prod.cols) == (n, k)
            assert prod.data == dense_product(a, b, k)
    with pytest.raises(DimensionMismatch):
        IntMatrix.zeros(2, 3) * IntMatrix.zeros(2, 3)
