"""Reference Smith normal form that also tracks its row and column
operations, plus the exact integer helpers that check them.

This is the version `oddwalk.snf` used before it stopped building the
transforms: unimodular U and V with U*A*V = D.  test_ncomplex.py checks
U*A*V = D and |det U| = |det V| = 1 here, and that `oddwalk.snf` returns
the same diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SNFResult:
    diagonal: list[int]      # invariant factors d1 | d2 | ..., nonnegative
    rank: int                # number of nonzero factors
    U: list[list[int]]       # left transform, rows x rows
    V: list[list[int]]       # right transform, cols x cols
    rows: int
    cols: int


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(matrix: list[list[int]]) -> SNFResult:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    A = [list(map(int, row)) for row in matrix]
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def row_gcd_transform(t, i):
        # unimodular on rows t, i: makes A[t][t] = gcd and A[i][t] = 0
        a, b = A[t][t], A[i][t]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            A[i] = [x - q * y for x, y in zip(A[i], A[t])]
            U[i] = [x - q * y for x, y in zip(U[i], U[t])]
            return
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        At, Ai = A[t], A[i]
        A[t] = [x * m + y * n for m, n in zip(At, Ai)]
        A[i] = [-q * m + p * n for m, n in zip(At, Ai)]
        Ut, Ui = U[t], U[i]
        U[t] = [x * m + y * n for m, n in zip(Ut, Ui)]
        U[i] = [-q * m + p * n for m, n in zip(Ut, Ui)]

    def col_gcd_transform(t, j):
        a, b = A[t][t], A[t][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for row in A:
                row[j] -= q * row[t]
            for row in V:
                row[j] -= q * row[t]
            return
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        for row in A:
            m, n = row[t], row[j]
            row[t] = x * m + y * n
            row[j] = -q * m + p * n
        for row in V:
            m, n = row[t], row[j]
            row[t] = x * m + y * n
            row[j] = -q * m + p * n

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0 and (
                    pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, rows):
                row_gcd_transform(t, i)
            for j in range(t + 1, cols):
                col_gcd_transform(t, j)
            # gcd column transforms may repopulate column t; exact ones cannot
            if all(A[i][t] == 0 for i in range(t + 1, rows)):
                break
        # divisibility: the pivot must divide the whole trailing block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
            U[t] = [x + y for x, y in zip(U[t], U[offender])]
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    diagonal = [A[i][i] for i in range(limit) if A[i][i] != 0]
    return SNFResult(diagonal, len(diagonal), U, V, rows, cols)


def matrix_product(X: list[list[int]], Y: list[list[int]]) -> list[list[int]]:
    n, k = len(X), len(Y[0]) if Y else 0
    out = [[0] * k for _ in range(n)]
    for i, row in enumerate(X):
        for j in range(k):
            out[i][j] = sum(row[m] * Y[m][j] for m in range(len(Y)))
    return out


def determinant(M: list[list[int]]) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n = len(M)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in M]
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
