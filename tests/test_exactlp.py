import itertools
import random
from fractions import Fraction

import pytest

from polygroup.exactlp import UnboundedError, _Tableau, optimize_free, point_in_hull


def _solve(rows, rhs):
    """The unique solution of a square system over Q, or None."""
    p = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(p):
        piv = next((i for i in range(col, p) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for i in range(p):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][p] / m[i][i] for i in range(p)]


def brute_force_minima(objectives, a_ub, b_ub):
    """Minima over the vertices of {t : A t <= b}, found by solving every
    square subsystem of tight rows; None when no vertex is feasible.

    Valid when the region is bounded or every minimum is finite."""
    p = len(a_ub[0])
    vertices = set()
    for idx in itertools.combinations(range(len(a_ub)), p):
        t = _solve([a_ub[i] for i in idx], [b_ub[i] for i in idx])
        if t is not None and all(sum(a * x for a, x in zip(row, t)) <= b
                                 for row, b in zip(a_ub, b_ub)):
            vertices.add(tuple(t))
    if not vertices:
        return None
    return [min(sum(c * x for c, x in zip(obj, t)) for t in vertices)
            for obj in objectives]


def _box(p, rng):
    """Rows -lo_j <= t_j <= hi_j with small random bounds."""
    rows, rhs = [], []
    for j in range(p):
        e = [int(i == j) for i in range(p)]
        rows += [e, [-x for x in e]]
        rhs += [rng.randint(-1, 4), rng.randint(-1, 4)]
    return rows, rhs


def _objectives(p, rng):
    objs = []
    for j in range(p):
        e = [int(i == j) for i in range(p)]
        objs += [e, [-x for x in e]]
    return objs + [[rng.randint(-3, 3) for _ in range(p)] for _ in range(2)]


def test_optimize_free_random_systems_match_vertex_oracle():
    rng = random.Random(41)
    empty = 0
    for _ in range(150):
        p = rng.randint(1, 3)
        rows, rhs = _box(p, rng)
        for _ in range(rng.randint(0, 5)):
            rows.append([rng.randint(-3, 3) for _ in range(p)])
            rhs.append(rng.randint(-4, 6))
        objs = _objectives(p, rng)
        got = optimize_free(objs, rows, rhs)
        assert got == brute_force_minima(objs, rows, rhs)
        empty += got is None
    # both outcomes occur
    assert 0 < empty < 150


def test_optimize_free_degenerate_systems_match_vertex_oracle():
    rng = random.Random(43)
    for _ in range(80):
        p = rng.randint(1, 3)
        rows, rhs = _box(p, rng)
        # many rows through one point, repeated rows and zero rows
        v = [rng.randint(-1, 2) for _ in range(p)]
        for _ in range(rng.randint(2, 6)):
            a = [rng.randint(-2, 2) for _ in range(p)]
            rows.append(a)
            rhs.append(sum(x * y for x, y in zip(a, v)))
        k = rng.randrange(len(rows))
        rows.append(list(rows[k]))
        rhs.append(rhs[k])
        rows.append([0] * p)
        rhs.append(rng.choice([0, 0, 1, -1]))
        objs = _objectives(p, rng)
        assert optimize_free(objs, rows, rhs) == brute_force_minima(objs, rows, rhs)


def test_optimize_free_empty_regions():
    assert optimize_free([[1]], [[1], [-1]], [0, -1]) is None        # t <= 0, t >= 1
    assert optimize_free([[1, 0]], [[0, 0]], [-1]) is None            # 0 <= -1
    # x + y <= 1 with x, y >= 1
    assert optimize_free([[1, 1]], [[1, 1], [-1, 0], [0, -1]], [1, -1, -1]) is None


def test_optimize_free_needs_phase1_and_warm_starts():
    # 2 <= t1 <= 5, 3 <= t2 <= 4, t1 + t2 <= 8: the origin is infeasible
    rows = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]
    rhs = [5, -2, 4, -3, 8]
    objs = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [2, -3]]
    assert optimize_free(objs, rows, rhs) == [2, -5, 3, -4, 5, -8, -8]
    assert optimize_free(objs, rows, rhs) == brute_force_minima(objs, rows, rhs)


def test_beale_cycling_example_terminates():
    # Beale (1955): from the slack basis, Dantzig's rule (most negative
    # reduced cost, ties to the lowest basic index) cycles on
    #   min -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4
    #   1/4 x1 - 8 x2 - x3 + 9 x4 + s1 = 0
    #   1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 + s2 = 0
    #   x3 + s3 = 1,  x, s >= 0
    # Bland's rule must reach the optimum -5/4. Scaling the rows by 4, 2
    # and 1 makes them integral with slack columns 4 e1, 2 e2 and e3; its
    # tableau adj(B) [N | b] over det(B) = 8 holds exactly the rational
    # tableau above. The objective is scaled by 4.
    rows = [[2, -64, -8, 72, 0], [4, -96, -4, 24, 0], [0, 0, 8, 0, 8]]
    tab = _Tableau(rows, [4, 5, 6], [0, 1, 2, 3])
    tab.den = 8
    assert tab.minimize([-3, 80, -2, 24, 0, 0, 0]) == -5
    # the same problem through optimize_free, with x >= 0 as rows
    rows = [[1, -32, -4, 36], [1, -24, -1, 6], [0, 0, 1, 0]]
    rhs = [0, 0, 1]
    for j in range(4):
        rows.append([-int(i == j) for i in range(4)])
        rhs.append(0)
    objective = [-3, 80, -2, 24]
    assert optimize_free([objective], rows, rhs) == [-5]
    assert brute_force_minima([objective], rows, rhs) == [-5]


def test_optimize_free_unbounded_objective_is_an_error():
    with pytest.raises(UnboundedError):
        optimize_free([[1]], [[1]], [3])                  # min t over t <= 3
    with pytest.raises(UnboundedError):
        optimize_free([[0, -1]], [[-1, 0], [1, 0]], [-1, 2])   # t2 free
    with pytest.raises(UnboundedError):
        optimize_free([[1, 1]], [], [])
    # on the same region t1 is bounded
    assert optimize_free([[1, 0], [-1, 0]], [[-1, 0], [1, 0]], [-1, 2]) == [1, -2]
    # an empty region is reported as empty, whatever the objective
    assert optimize_free([[1]], [[1], [-1]], [-2, 1]) is None


def test_point_in_hull_cases():
    tri = [(0, 0), (4, 0), (0, 4)]
    assert point_in_hull((1, 1), tri)            # interior
    assert point_in_hull((2, 2), tri)            # on a facet
    assert point_in_hull((2, 0), tri)            # on another facet
    assert point_in_hull((4, 0), tri)            # a vertex
    assert not point_in_hull((3, 2), tri)        # outside
    assert not point_in_hull((-1, 0), tri)       # outside, negative coordinate
    cube = list(itertools.product((-1, 1), repeat=3))
    assert point_in_hull((0, 0, 0), cube)
    assert point_in_hull((1, 0, 0), cube)
    assert point_in_hull((-1, -1, -1), cube)
    assert not point_in_hull((2, 0, 0), cube)
    # lower-dimensional hulls and repeated points
    seg = [(0, 0, 0), (2, 2, 2), (2, 2, 2)]
    assert point_in_hull((1, 1, 1), seg)
    assert not point_in_hull((1, 1, 0), seg)
    assert point_in_hull((3, -1), [(3, -1)])
    assert not point_in_hull((0, 0), [])
