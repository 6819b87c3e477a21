"""The reduction kernel against a frozen reference.

reference_snf_inplace is the earlier kernel, kept here verbatim: it
tracks U, V and both inverses, scans the whole submatrix for every pivot
and sweeps every row and column.  The kernel under test tracks only U and
V, stops the scan at the first unit and sweeps only nonzero entries, but
keeps the pivot rule, so d, u and v must come out bit-identical.
"""

import random

from fourfold._snf_py import snf_inplace


def reference_snf_inplace(d, u, uinv, v, vinv, m, n):
    t = 0
    mn = m if m < n else n
    while t < mn:
        bi = -1
        bj = -1
        bv = 0
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                x = di[j]
                if x:
                    if x < 0:
                        x = -x
                    if bi < 0 or x < bv:
                        bi = i
                        bj = j
                        bv = x
        if bi < 0:
            break
        if bi != t:
            _swap_rows(d, u, uinv, t, bi)
        if bj != t:
            _swap_cols(d, v, vinv, t, bj)
        if d[t][t] < 0:
            _negate_row(d, u, uinv, t, m)
        p = d[t][t]
        dirty = False
        for i in range(t + 1, m):
            x = d[i][t]
            if x:
                q = x // p
                if q:
                    _row_sub(d, u, uinv, i, t, q, m)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            x = d[t][j]
            if x:
                q = x // p
                if q:
                    _col_sub(d, v, vinv, j, t, q, m, n)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        bad = -1
        for i in range(t + 1, m):
            di = d[i]
            for j in range(t + 1, n):
                if di[j] % p:
                    bad = i
                    break
            if bad >= 0:
                break
        if bad >= 0:
            _row_add(d, u, uinv, t, bad, m)
            continue
        t += 1


def _swap_rows(d, u, uinv, a, b):
    d[a], d[b] = d[b], d[a]
    u[a], u[b] = u[b], u[a]
    for r in uinv:
        r[a], r[b] = r[b], r[a]


def _swap_cols(d, v, vinv, a, b):
    for r in d:
        r[a], r[b] = r[b], r[a]
    for r in v:
        r[a], r[b] = r[b], r[a]
    vinv[a], vinv[b] = vinv[b], vinv[a]


def _negate_row(d, u, uinv, t, m):
    dt = d[t]
    for j in range(len(dt)):
        dt[j] = -dt[j]
    ut = u[t]
    for j in range(m):
        ut[j] = -ut[j]
    for r in uinv:
        r[t] = -r[t]


def _row_sub(d, u, uinv, i, t, q, m):
    di = d[i]
    dt = d[t]
    for j in range(len(dt)):
        x = dt[j]
        if x:
            di[j] -= q * x
    ui = u[i]
    ut = u[t]
    for j in range(m):
        x = ut[j]
        if x:
            ui[j] -= q * x
    for r in uinv:
        x = r[i]
        if x:
            r[t] += q * x


def _row_add(d, u, uinv, t, b, m):
    dt = d[t]
    db = d[b]
    for j in range(len(dt)):
        x = db[j]
        if x:
            dt[j] += x
    ut = u[t]
    ub = u[b]
    for j in range(m):
        x = ub[j]
        if x:
            ut[j] += x
    for r in uinv:
        x = r[t]
        if x:
            r[b] -= x


def _col_sub(d, v, vinv, j, t, q, m, n):
    for i in range(m):
        x = d[i][t]
        if x:
            d[i][j] -= q * x
    for i in range(n):
        x = v[i][t]
        if x:
            v[i][j] -= q * x
    vt = vinv[t]
    vj = vinv[j]
    for k in range(n):
        x = vj[k]
        if x:
            vt[k] += q * x


def identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def reference(m, n, data):
    d = [row[:] for row in data]
    u, v = identity(m), identity(n)
    reference_snf_inplace(d, u, identity(m), v, identity(n), m, n)
    return d, u, v


def kernel(m, n, data):
    d = [row[:] for row in data]
    u, v = identity(m), identity(n)
    snf_inplace(d, u, v, m, n)
    return d, u, v


def dense(rng, m, n):
    return [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]


def sparse_units(rng, m, n):
    """Mostly zero, nonzeros mostly +-1, like an expanded group-ring boundary."""
    def entry():
        r = rng.random()
        if r < 0.75:
            return 0
        if r < 0.95:
            return rng.choice((1, -1))
        return rng.randint(-4, 4)
    return [[entry() for _ in range(n)] for _ in range(m)]


def huge(rng, m, n):
    return [[rng.randint(-10**12, 10**12) for _ in range(n)] for _ in range(m)]


def test_kernel_matches_frozen_reference():
    rng = random.Random(60622)
    shapes = [(0, 0), (0, 3), (4, 0), (1, 5), (5, 1)]
    makers = (dense, sparse_units, huge)
    trials = 0
    for make in makers:
        for m, n in shapes:
            data = make(rng, m, n)
            assert kernel(m, n, data) == reference(m, n, data), (make.__name__, data)
            trials += 1
    while trials < 400:
        make = makers[trials % 3]
        side = 5 if make is huge else 9
        m = rng.randint(1, side)
        n = rng.randint(1, side)
        data = make(rng, m, n)
        assert kernel(m, n, data) == reference(m, n, data), (make.__name__, data)
        trials += 1
