"""Exact linear programming on a fraction-free integer tableau.

One simplex kernel serves two callers. ``optimize_free`` bounds the
feasible translation region in ``vpolytope.find_translation_into``: it
runs one phase 1 and then minimizes each objective in turn, warm from
the previous optimal basis. ``point_in_hull`` is the independent vertex
oracle that the tests check ``lattice.hull`` against; no hull
computation solves an LP.

The tableau is condensed (one column per nonbasic variable) and held in
integers over one common positive denominator, the determinant of the
current basis. A pivot is one integer update with an exact division by
the old denominator (integer pivoting: Edmonds 1967; Bareiss 1968;
Azulay and Pique, ACM TOMS 27, 2001), so no Fraction is formed until an
optimal value is read off. Bland's rule chooses the entering and the
leaving variable, so degenerate problems cannot cycle.
"""

from __future__ import annotations

from fractions import Fraction


class UnboundedError(ValueError):
    """The objective is unbounded below on a non-empty region."""


def _eliminate(row, pr, q, c, den):
    """Row `row` after a pivot on entry q of row `pr`, column c."""
    f = row[c]
    if f:
        out = [(x * q - f * y) // den for x, y in zip(row, pr)]
    elif q == den:
        return row
    else:
        out = [x * q // den for x in row]
    out[c] = -f
    return out


class _Tableau:
    """Rows x_B[i] + sum_j rows[i][j] x_N[j] / den = rows[i][-1] / den.

    `basic` labels the rows and `nonbasic` the columns with variable
    indices, which Bland's rule orders. `obj` is the objective row in the
    same form, with -den times the objective value in its last entry.
    Every division is exact because each entry is a minor of the integer
    constraints [B | N | b] the tableau started from with B = I.
    """

    def __init__(self, rows, basic, nonbasic):
        self.rows = rows
        self.basic = basic
        self.nonbasic = nonbasic
        self.den = 1
        self.obj = None

    def pivot(self, r, c):
        """Exchange the basic variable of row r with the nonbasic one of
        column c."""
        den, pr = self.den, self.rows[r]
        q = pr[c]
        self.rows = [row if i == r else _eliminate(row, pr, q, c, den)
                     for i, row in enumerate(self.rows)]
        if self.obj is not None:
            self.obj = _eliminate(self.obj, pr, q, c, den)
        pr[c] = den
        self.basic[r], self.nonbasic[c] = self.nonbasic[c], self.basic[r]
        self.den = q
        if q < 0:
            # keep the denominator positive; only phase 1's clean-up
            # pivots on a negative entry
            self.rows = [[-x for x in row] for row in self.rows]
            if self.obj is not None:
                self.obj = [-x for x in self.obj]
            self.den = -q

    def minimize(self, cost):
        """Minimize sum cost[v] x_v from the current feasible basis.

        `cost` is indexed by variable. Returns the exact optimal value.
        """
        basic, nonbasic = self.basic, self.nonbasic
        obj = [self.den * cost[v] for v in nonbasic] + [0]
        for row, v in zip(self.rows, basic):
            cv = cost[v]
            if cv:
                obj = [o - cv * x for o, x in zip(obj, row)]
        self.obj = obj
        while True:
            obj = self.obj
            entering = [j for j in range(len(nonbasic)) if obj[j] < 0]
            if not entering:
                return Fraction(-obj[-1], self.den)
            c = min(entering, key=nonbasic.__getitem__)
            best = None
            for i, row in enumerate(self.rows):
                a = row[c]
                if a > 0:
                    if best is None:
                        best, ba, bb = i, a, row[-1]
                        continue
                    lhs, rhs = row[-1] * ba, bb * a
                    if lhs < rhs or (lhs == rhs and basic[i] < basic[best]):
                        best, ba, bb = i, a, row[-1]
            if best is None:
                raise UnboundedError("objective is unbounded below")
            self.pivot(best, c)

    def phase1(self, first_artificial):
        """Drive the variables from `first_artificial` on to zero.

        Returns False when that is impossible, that is, when the region
        is empty. Otherwise it pivots the artificial variables out of
        the basis, drops the rows that turn out redundant and the
        artificial columns, and returns True.
        """
        # each row has at most one artificial variable
        cost = [0] * first_artificial + [1] * len(self.rows)
        if self.minimize(cost) > 0:
            return False
        self.obj = None
        r = 0
        while r < len(self.rows):
            if self.basic[r] >= first_artificial:
                row = self.rows[r]
                c = next((j for j, v in enumerate(self.nonbasic)
                          if v < first_artificial and row[j]), None)
                if c is None:
                    del self.rows[r], self.basic[r]
                    continue
                self.pivot(r, c)
            r += 1
        keep = [j for j, v in enumerate(self.nonbasic) if v < first_artificial]
        self.rows = [[row[j] for j in keep] + [row[-1]] for row in self.rows]
        self.nonbasic = [self.nonbasic[j] for j in keep]
        return True


def optimize_free(objectives, a_ub, b_ub):
    """Minimize each objective c.t over {t free : A_ub t <= b_ub}, in turn.

    The data are integers. Returns the list of exact optimal values, one
    Fraction per objective, or None when the region is empty. Raises
    UnboundedError when an objective is unbounded below. Phase 1 runs
    once, with an artificial variable only on the rows whose right-hand
    side is negative; every other row starts from its slack. Each
    objective re-optimizes from the previous optimal basis.
    """
    m = len(a_ub)
    p = len(a_ub[0]) if m else (len(objectives[0]) if objectives else 0)
    # variables: t = t+ - t- as 0..p-1 and p..2p-1, the slack of row i as
    # 2p + i, and the artificials after those
    negative = [i for i in range(m) if b_ub[i] < 0]
    rows = [list(a) + [-x for x in a] + [0] * len(negative) + [b]
            for a, b in zip(a_ub, b_ub)]
    basic = [2 * p + i for i in range(m)]
    # a row with b < 0 becomes -a t+ + a t- - s + artificial = -b, with
    # the artificial basic and the slack s in a nonbasic column
    for col, i in enumerate(negative):
        rows[i] = [-x for x in rows[i]]
        rows[i][2 * p + col] = -1
        basic[i] = 2 * p + m + col
    tab = _Tableau(rows, basic, list(range(2 * p)) + [2 * p + i for i in negative])
    if negative and not tab.phase1(2 * p + m):
        return None
    values = []
    for c in objectives:
        cost = list(c) + [-x for x in c] + [0] * m
        values.append(tab.minimize(cost))
    return values


def point_in_hull(point, points) -> bool:
    """Exact test: is `point` in the convex hull of `points`?

    It asks phase 1 whether some lambda >= 0 has sum(lambda) = 1 and
    sum(lambda_k points[k]) = point.
    """
    pts = list(points)
    if not pts:
        return False
    n = len(pts)
    rows = [[1] * n + [1]]
    for coord, target in enumerate(point):
        row = [p[coord] for p in pts] + [target]
        rows.append(row if target >= 0 else [-x for x in row])
    tab = _Tableau(rows, list(range(n, n + len(rows))), list(range(n)))
    return tab.phase1(n)
