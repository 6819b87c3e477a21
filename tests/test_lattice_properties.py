"""Property tests for homology from elementary divisors, for solving
many right-hand sides against one reduction, and for the gcd/lcm
canonical form of a list of cyclic orders.

Two oracles that share no code with the routes under test: sympy's
invariant factors on a complex whose homology is known by construction
and on the presentation [D; m I] of em_torsion, and the per-column route (a fresh Smith form for every right-hand side,
homology as cycles modulo boundaries written in a cycle basis) kept here
as the reference.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from fourfold.extensions import em_torsion
from fourfold.intmat import (
    AbelianInvariants,
    IntMatrix,
    cokernel_invariants,
    homology_invariants,
    kernel_basis,
    smith_normal_form,
    solve_columns,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
ENTRY = st.integers(-6, 6)


def per_column_solve(A, b):
    s = smith_normal_form(A)
    r = len(s.diag)
    c = s.U.mul_vec(b)
    if any(c[r:]) or any(c[i] % s.diag[i] for i in range(r)):
        return None
    return s.V.mul_vec([c[i] // s.diag[i] for i in range(r)] + [0] * (A.cols - r))


def per_column_homology(d_out, d_in, dim):
    z = IntMatrix.identity(dim) if d_out is None else kernel_basis(d_out)
    if d_in is None:
        return cokernel_invariants(IntMatrix.zeros(z.cols, 0))
    cols = [per_column_solve(z, col) for col in d_in.columns()]
    assert None not in cols
    return cokernel_invariants(IntMatrix.from_columns(cols, z.cols))


def sympy_factors(rows, cols, data):
    """Nonzero invariant factors, by sympy."""
    if not rows or not cols:
        return []
    return [abs(int(d)) for d in invariant_factors(Matrix(data), domain=ZZ) if d != 0]


def matmul(a, b, inner, cols):
    return [[sum(r[k] * b[k][j] for k in range(inner)) for j in range(cols)] for r in a]


@st.composite
def matrices(draw, rows, cols):
    return [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]


@st.composite
def complexes(draw):
    """(d_out, d_in, dim, expected homology) with d_out . d_in = 0.

    In a basis P of Z^dim split as Z^a + Z^(dim-a), d_in is M on the
    first summand and d_out is N on the second, so the homology is
    coker(M) + ker(N).
    """
    dim = draw(st.integers(0, 6))
    a = draw(st.integers(0, dim))
    k = draw(st.integers(0, 5))
    m = draw(st.integers(0, 5))
    M = draw(matrices(a, k))
    N = draw(matrices(m, dim - a))
    P = [[int(i == j) for j in range(dim)] for i in range(dim)]
    Pinv = [row[:] for row in P]
    if dim > 1:
        for _ in range(draw(st.integers(0, 12))):
            i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
            c = draw(st.integers(-3, 3))
            # P <- P (I + c e_ij), Pinv <- (I - c e_ij) Pinv
            for row in P:
                row[j] += c * row[i]
            Pinv[i] = [x - c * y for x, y in zip(Pinv[i], Pinv[j])]
    d_in = matmul(P, M + [[0] * k for _ in range(dim - a)], dim, k)
    d_out = matmul(N, Pinv[a:], dim - a, dim)
    fm = sympy_factors(a, k, M)
    fn = sympy_factors(m, dim - a, N)
    expected = AbelianInvariants(a - len(fm) + (dim - a) - len(fn), tuple(d for d in fm if d > 1))
    use_none_out = m == 0 and draw(st.booleans())
    use_none_in = k == 0 and draw(st.booleans())
    return (
        None if use_none_out else IntMatrix(m, dim, d_out),
        None if use_none_in else IntMatrix(dim, k, d_in),
        dim,
        expected,
    )


@PROPERTY
@given(complexes())
def test_homology_from_elementary_divisors(cx):
    d_out, d_in, dim, expected = cx
    got = homology_invariants(d_out, d_in, dim)
    assert got == expected
    assert got == per_column_homology(d_out, d_in, dim)


@st.composite
def systems(draw):
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    A = IntMatrix(m, n, draw(matrices(m, n)))
    cols = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            cols.append(A.mul_vec([draw(ENTRY) for _ in range(n)]))
        else:
            cols.append(tuple(draw(ENTRY) for _ in range(m)))
    return A, cols


@PROPERTY
@given(systems())
def test_solve_columns_matches_per_column_route(system):
    A, cols = system
    got = solve_columns(A, cols)
    assert got == [per_column_solve(A, b) for b in cols]
    for b, x in zip(cols, got):
        if x is not None:
            assert A.mul_vec(x) == tuple(b)


@PROPERTY
@given(st.integers(0, 3), st.lists(st.integers(-40, 40), max_size=7))
def test_from_diag_matches_sympy_invariant_factors(free, orders):
    k = len(orders)
    factors = sympy_factors(k, k, [[orders[i] if i == j else 0 for j in range(k)] for i in range(k)])
    expected = AbelianInvariants(free + k - len(factors), tuple(d for d in factors if d > 1))
    assert AbelianInvariants.from_diag(free, orders) == expected


def test_em_torsion_matches_sympy_on_the_stacked_presentation():
    # sympy reduces [D; m I] itself; em_torsion reads the kept Smith
    # diagonal of D alone, so the two share no reduction
    rng = random.Random(1729)
    drawn = set()
    for rows in range(1, 9):
        for cols in range(9):
            dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            gone = set(rng.sample(range(cols), rng.randint(1, cols))) if cols else set()
            holed = [[0 if j in gone else x for j, x in enumerate(r)] for r in dense]
            for data in (dense, holed, [[0] * cols for _ in range(rows)]):
                d = IntMatrix(rows, cols, data)
                for m in (rng.randint(-12, 12) for _ in range(3)):
                    drawn.add(m)
                    stacked = data + [[m if i == j else 0 for j in range(cols)] for i in range(cols)]
                    factors = sympy_factors(rows + cols, cols, stacked)
                    want = AbelianInvariants.from_diag(rows + cols - len(factors), factors)
                    assert em_torsion(d, m) == want, (data, m)
    assert drawn == set(range(-12, 13))
