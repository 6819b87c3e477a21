"""SmithForm is the one owner of a factored lattice.

The functions below are frozen copies of the free helpers that intmat
kept beside its public lattice functions before SmithForm answered the
same questions itself: _span_coordinates, _smith_solve, _smith_kernel
and _smith_quotient (with the _leading_columns they read).  On seeded
random matrices, including empty shapes, rank-deficient matrices,
non-unit elementary divisors and columns outside the span, the methods
coordinates, solve, contains, kernel and quotient must give exactly
what the copies give.  IntMatrix.smith() must reduce once and keep a
SmithForm equal to a fresh reduction, and no module outside intmat may
import a private intmat name.
"""

import ast
import pathlib
import random

import pytest

from fourfold import intmat
from fourfold.errors import DimensionMismatch, HypothesisViolated
from fourfold.intmat import (
    IntMatrix,
    cokernel_invariants,
    column_span_basis,
    homology_invariants,
    kernel_basis,
    quotient_invariants,
    rank,
    smith_normal_form,
    solve_columns,
    solve_integer,
    solve_with_kernel,
    subgroup_membership,
)

# ---- frozen reference: the free helpers as they were ------------------------


def ref_leading_columns(M, r):
    return IntMatrix._adopt(M.rows, r, [row[:r] for row in M.data])


def ref_smith_kernel(s):
    r = len(s.diag)
    return IntMatrix._adopt(s.V.rows, s.V.cols - r, [row[r:] for row in s.V.data])


def ref_span_coordinates(s, cols):
    """Coordinates of each b in cols in the basis diag[i] * (U^-1)[:, i]
    of the column span of the matrix with Smith form s, or None for a b
    that lies outside.  One product with U serves every column."""
    m = s.U.rows
    for b in cols:
        if len(b) != m:
            raise DimensionMismatch("rhs length %d, expected %d" % (len(b), m))
    r = len(s.diag)
    units = not r or s.diag[-1] == 1
    out = []
    for c in (s.U * IntMatrix.from_columns(cols, m)).columns():
        y = None if any(c[r:]) else list(c[:r])
        if y is not None and not units:
            for i, d in enumerate(s.diag):
                q, rem = divmod(y[i], d)
                if rem:
                    y = None
                    break
                y[i] = q
        out.append(y)
    return out


def ref_smith_solve(s, cols):
    """One solution V (y, 0) per column, or None, from its span coordinates y."""
    ys = ref_span_coordinates(s, cols)
    hits = [y for y in ys if y is not None]
    r = len(s.diag)
    xs = iter((ref_leading_columns(s.V, r) * IntMatrix.from_columns(hits, r)).columns())
    return [None if y is None else next(xs) for y in ys]


def ref_smith_quotient(s, sub_gens):
    """quotient_invariants with the big lattice given by its Smith form:
    the relations are the coordinates of sub_gens in the span basis."""
    cols = ref_span_coordinates(s, sub_gens.columns())
    if None in cols:
        raise ValueError("sub lattice is not contained in the big lattice")
    return cokernel_invariants(IntMatrix.from_columns(cols, len(s.diag)))


# ---- cases ------------------------------------------------------------------


def _unimodular(rng, n):
    """A product of random elementary row operations on I_n."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(n, n, rows)


def _case(seed):
    """(A, P, divisors): A = P D Q with P, Q unimodular and D holding the
    divisor chain, so column i < len(divisors) of P lies in the span of A
    exactly when divisor i is 1, and every later column of P lies outside
    its rational span."""
    rng = random.Random(seed)
    m, n = rng.randint(0, 6), rng.randint(0, 6)
    if seed % 5 == 0:
        m, n = (0, n) if seed % 2 else (m, 0)
    divisors, d = [], 1
    for _ in range(rng.randint(0, min(m, n))):
        d *= rng.choice((1, 1, 2, 3))
        divisors.append(d)
    D = IntMatrix(m, n, [[divisors[i] if i == j and i < len(divisors) else 0 for j in range(n)] for i in range(m)])
    P = _unimodular(rng, m)
    return P * D * _unimodular(rng, n), P, divisors


def _columns(rng, A, P):
    """Columns inside the span, in its rational span only, and outside."""
    cols = [A.mul_vec([rng.randint(-3, 3) for _ in range(A.cols)]) for _ in range(3)]
    cols += P.columns()
    cols += [tuple(rng.randint(-4, 4) for _ in range(A.rows)) for _ in range(3)]
    if P.cols:
        # in span + one column of P: outside the lattice unless its divisor is 1
        cols.append(tuple(a + b for a, b in zip(cols[0], P.column(0))))
    return cols


SEEDS = range(60)


def test_the_cases_cover_every_shape_and_divisor():
    cases = [_case(seed) for seed in SEEDS]
    assert any(A.rows == 0 and A.cols for A, _, _ in cases)
    assert any(A.cols == 0 and A.rows for A, _, _ in cases)
    assert any(0 < len(ds) < min(A.rows, A.cols) for A, _, ds in cases)
    assert any(ds and ds[-1] > 1 for _, _, ds in cases)
    assert any(ds and ds[-1] == 1 for _, _, ds in cases)
    # some column of P lies in the rational span but outside the lattice
    assert any(
        A.smith().contains(tuple(d * x for x in P.column(i))) and not A.smith().contains(P.column(i))
        for A, P, ds in cases
        for i, d in enumerate(ds)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_methods_match_the_frozen_helpers(seed):
    A, P, divisors = _case(seed)
    s = A.smith()
    assert s.diag == tuple(divisors)
    cols = _columns(random.Random(seed), A, P)
    coords = s.coordinates(cols)
    assert coords == ref_span_coordinates(s, cols)
    assert [s.contains(b) for b in cols] == [y is not None for y in coords]
    sols = s.solve(cols)
    assert sols == ref_smith_solve(s, cols)
    for b, x in zip(cols, sols):
        assert x is None or A.mul_vec(x) == b
    assert s.kernel() == ref_smith_kernel(s)
    assert (A * s.kernel()).is_zero()
    inside = IntMatrix.from_columns([b for b, x in zip(cols, sols) if x is not None], A.rows)
    assert s.quotient(inside) == ref_smith_quotient(s, inside)
    outside = IntMatrix.from_columns(cols, A.rows)
    if None in coords:
        with pytest.raises(ValueError):
            ref_smith_quotient(s, outside)
        with pytest.raises(HypothesisViolated):
            s.quotient(outside)


def test_coordinates_check_the_column_length():
    s = IntMatrix.from_rows([[2, 0], [0, 3]]).smith()
    for method in (s.coordinates, s.solve):
        with pytest.raises(DimensionMismatch):
            method([(1, 2, 3)])
    with pytest.raises(DimensionMismatch):
        s.contains((1,))


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_smith_is_kept_and_equals_a_fresh_reduction(seed):
    A = _case(seed)[0]
    s = A.smith()
    assert A.smith() is s
    fresh = smith_normal_form(A)
    assert (s.U, s.V, s.diag) == (fresh.U, fresh.V, fresh.diag)
    diag = [[s.diag[i] if i == j and i < len(s.diag) else 0 for j in range(A.cols)] for i in range(A.rows)]
    assert s.U * A * s.V == IntMatrix(A.rows, A.cols, diag)


def test_every_lattice_function_reduces_its_matrix_once(monkeypatch):
    reduced = []
    snf = intmat.smith_normal_form

    def counting(A):
        reduced.append(A)
        return snf(A)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    A = IntMatrix.from_rows([[2, 4, 0], [0, 6, 6], [2, 10, 6]])
    b = A.mul_vec((1, 1, 1))
    assert rank(A) == 2
    assert cokernel_invariants(A).free_rank == 1
    assert kernel_basis(A).cols == 1
    assert solve_integer(A, b) is not None
    assert solve_columns(A, [b, (1, 0, 0)])[1] is None
    assert solve_with_kernel(A, b)[1].cols == 1
    assert subgroup_membership(A, b)
    assert column_span_basis(A).cols == 2
    assert quotient_invariants(A, A).is_trivial
    assert homology_invariants(None, A, 3).free_rank == 1
    # quotient_invariants also reduces its relation coordinates, once
    assert sum(a is A for a in reduced) == 1
    assert len(reduced) == 2


SRC = pathlib.Path(intmat.__file__).parent


def test_no_module_outside_intmat_imports_a_private_intmat_name():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "intmat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "intmat":
                found += ["%s: %s" % (path.name, a.name) for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                if isinstance(node.value, ast.Name) and node.value.id == "intmat":
                    found.append("%s: intmat.%s" % (path.name, node.attr))
    assert found == []
