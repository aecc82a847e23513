"""Exact integer matrix utilities.

Everything here works with plain Python ints (arbitrary precision); no
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError("shape mismatch in mat_mul")
    return [[sum(a[i][l] * b[l][j] for l in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_vec(a, v):
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch in mat_vec")
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def int_det(a) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    m = [list(row) for row in a]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - f * m[k][j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        d = self.D
        return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def snf(m_in) -> SmithDecomposition:
    """Smith normal form of an integer matrix, with transformation matrices."""
    rows = len(m_in)
    cols = len(m_in[0]) if rows else 0
    m = [list(map(int, row)) for row in m_in]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, f):
        for row in m:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # locate a pivot: smallest nonzero absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            cleared = True
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(i, t, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        cleared = False
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(j, t, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        cleared = False
            if cleared:
                break
        # enforce divisibility d_t | m[i][j]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    freeze = lambda mat: tuple(tuple(row) for row in mat)
    return SmithDecomposition(freeze(u), freeze(m), freeze(v))


def int_kernel(m) -> list[list[int]]:
    """Basis of the saturated integer kernel {v : M v = 0}."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return identity_matrix(cols)
    dec = snf(m)
    diag = dec.diagonal
    basis = []
    for j in range(cols):
        if j >= len(diag) or diag[j] == 0:
            basis.append([dec.V[i][j] for i in range(cols)])
    return basis


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, read off one Smith form.

    U A V = I gives A^-1 = V U. Raises ValueError when A is not square
    or an invariant factor is not 1.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    dec = snf(a)
    if any(x != 1 for x in dec.diagonal):
        raise ValueError("matrix is not unimodular")
    return mat_mul(dec.V, dec.U)


def solve_integer_exact(a, b) -> list[int] | None:
    """An integer solution of A x = b, or None.

    With U A V = D in Smith form, x = V z where D z = U b.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    dec = snf(a)
    ub = mat_vec([list(r) for r in dec.U], list(b))
    diag = dec.diagonal
    z = [0] * cols
    for i in range(rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        elif ub[i] % d != 0:
            return None
        else:
            z[i] = ub[i] // d
    return mat_vec([list(r) for r in dec.V], z)
