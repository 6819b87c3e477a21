"""Smith normal form reduction kernel.

This is the hot inner loop of the whole package.  Entries are arbitrary
precision Python ints throughout.

The routine reduces d in place to Smith normal form while maintaining the
row transform u and the column transform v, so that on exit

    u_end * d_start * v_end == d_end.

Pivot choice is the minimal nonzero absolute value in the remaining
submatrix, ties broken by smallest row then column index, which makes the
reduction fully deterministic.  The scan stops at the first entry of
absolute value 1: no entry is smaller, and the scan runs in row-major
order, so it is the entry the full scan would pick.

Before step t every row i >= t of d is zero left of column t and every
row i < t is zero right of column i; the sweeps rely on that to visit
only the nonzero entries of the pivot row and column.
"""

from itertools import compress


def snf_inplace(d, u, v, m, n):
    t = 0
    mn = m if m < n else n
    while t < mn:
        # locate the minimal-|.|-value nonzero entry of d[t:, t:]
        bi = -1
        bv = 0
        for i in range(t, m):
            x = min(map(abs, filter(None, d[i][t:])), default=0)
            if x and (bi < 0 or x < bv):
                bi = i
                bv = x
                if x == 1:
                    break
        if bi < 0:
            break
        row = d[bi]
        bj = t
        while row[bj] != bv and row[bj] != -bv:
            bj += 1
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for i in range(t, m):
                r = d[i]
                r[t], r[bj] = r[bj], r[t]
            for r in v:
                r[t], r[bj] = r[bj], r[t]
        dt = d[t]
        if dt[t] < 0:
            dt = d[t] = [-x for x in dt]
            u[t] = [-x for x in u[t]]
        p = dt[t]
        dirty = False
        # row sweep: rows below t minus multiples of row t, which stays fixed
        dcols = list(compress(range(n), dt))
        ut = u[t]
        ucols = list(compress(range(m), ut))
        for i in range(t + 1, m):
            di = d[i]
            x = di[t]
            if x:
                q = x // p
                if q:
                    for j in dcols:
                        di[j] -= q * dt[j]
                    ui = u[i]
                    for j in ucols:
                        ui[j] -= q * ut[j]
                if di[t]:
                    dirty = True
        # column sweep: columns right of t minus multiples of column t,
        # which stays fixed; row t is zero left of the pivot, so dcols[0]
        # is t and dcols[1:] are the columns to clear
        drows = [(d[i], d[i][t]) for i in range(t, m) if d[i][t]]
        vrows = [(r, r[t]) for r in v if r[t]]
        for j in dcols[1:]:
            q = dt[j] // p
            if q:
                for r, y in drows:
                    r[j] -= q * y
                for r, y in vrows:
                    r[j] -= q * y
            if dt[j]:
                dirty = True
        if dirty:
            # a remainder smaller than the pivot appeared; re-pick
            continue
        if p != 1:
            # every entry below and right of the pivot must be a multiple
            # of it; rows below t are zero up to column t
            mod = p.__rmod__
            bad = next((b for b in range(t + 1, m) if any(map(mod, d[b]))), 0)
            if bad:
                # row_t += row_bad, then re-pick
                d[t] = [x + y for x, y in zip(dt, d[bad])]
                u[t] = [x + y for x, y in zip(ut, u[bad])]
                continue
        t += 1
