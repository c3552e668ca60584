"""Exact integer matrix helpers (no fractions or floating point anywhere)."""

from __future__ import annotations

from operator import mul

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def row_times_mat(v: Vec, m: Mat) -> Vec:
    """Row vector times matrix: (v M)_j = sum_i v_i M_ij."""
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


def is_symmetric(m: Mat) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def det(m: Mat) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m: Mat) -> Mat:
    """Adjugate matrix: m @ adjugate(m) == det(m) * I, all entries integer.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [m | I]. Every entry
    stays a minor of the augmented matrix, so each division is exact, and the
    elimination ends at [d I | d m^-1] with d = det(m) up to the sign of the
    row swaps.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            raise ZeroDivisionError("adjugate of singular matrix")
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        rk = a[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], rk)]
        prev = p
    return tuple(tuple(sign * x for x in row[n:]) for row in a)


def hnf(rows: list[Vec]) -> Mat:
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Returns the canonical upper-echelon basis: positive pivots, entries above
    each pivot reduced into [0, pivot). Zero rows are dropped, so two row sets
    span the same integer lattice iff their HNFs are equal.
    """
    if not rows:
        return ()
    ncols = len(rows[0])
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(ncols):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        # Euclidean reduction on the current column.
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            r0 = live[0]
            for r in live[1:]:
                q = r[col] // r0[col]
                for j in range(ncols):
                    r[j] -= q * r0[j]
            live = [r for r in live if r[col] != 0]
            work = [r for r in work if any(r)]
        pivot_row = live[0]
        if pivot_row[col] < 0:
            for j in range(ncols):
                pivot_row[j] = -pivot_row[j]
        work.remove(pivot_row)
        # Reduce entries above the new pivot.
        for r in basis:
            q = r[col] // pivot_row[col]
            if q:
                for j in range(ncols):
                    r[j] -= q * pivot_row[j]
        basis.append(pivot_row)
    if any(any(r) for r in work):
        raise AssertionError("HNF elimination left nonzero residue")
    return tuple(tuple(r) for r in basis)


def gram_of_rows(gram: Mat, rows: list[Vec]) -> Mat:
    """Gram matrix of the given vectors under x^T gram y."""
    gy = [row_times_mat(r, gram) for r in rows]
    return tuple(
        tuple(sum(a * b for a, b in zip(r, g)) for g in gy) for r in rows
    )
