"""The integral polytope group and its translation quotient.

Elements are formal differences pos - neg of integral polytopes. The
representation is not unique, so all predicates here are defined through
Minkowski sums of representatives, never through the raw parts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from . import exactlp
from .lattice import (
    GeometryError,
    IntegralPolytope,
    ccw_key,
    ccw_order,
    dot,
    face,
    facet_description,
    hull,
    minkowski_sum,
    primitive,
    reflect,
    seminorm,
    support,
)

ZERO_BUDGET_DEFAULT = 200000


def origin_polytope(rank: int) -> IntegralPolytope:
    return IntegralPolytope(rank, ((0,) * rank,))


@dataclass(frozen=True)
class VirtualPolytope:
    pos: IntegralPolytope
    neg: IntegralPolytope

    def __post_init__(self):
        if self.pos.rank != self.neg.rank:
            raise GeometryError("rank mismatch between pos and neg parts")

    @property
    def rank(self) -> int:
        return self.pos.rank

    @staticmethod
    def zero(rank: int) -> "VirtualPolytope":
        z = origin_polytope(rank)
        return VirtualPolytope(z, z)

    @staticmethod
    def from_polytope(p: IntegralPolytope) -> "VirtualPolytope":
        return VirtualPolytope(p, origin_polytope(p.rank))


def vp_add(x: VirtualPolytope, y: VirtualPolytope) -> VirtualPolytope:
    if x.rank != y.rank:
        raise GeometryError("rank mismatch in vp_add")
    return VirtualPolytope(minkowski_sum(x.pos, y.pos), minkowski_sum(x.neg, y.neg))


def vp_neg(x: VirtualPolytope) -> VirtualPolytope:
    return VirtualPolytope(x.neg, x.pos)


def vp_sub(x: VirtualPolytope, y: VirtualPolytope) -> VirtualPolytope:
    return vp_add(x, vp_neg(y))


def involution(x: VirtualPolytope) -> VirtualPolytope:
    return VirtualPolytope(reflect(x.pos), reflect(x.neg))


def vp_equal(x: VirtualPolytope, y: VirtualPolytope) -> bool:
    if x.rank != y.rank:
        raise GeometryError("rank mismatch in vp_equal")
    return minkowski_sum(x.pos, y.neg) == minkowski_sum(y.pos, x.neg)


def _normalize_to_origin(p: IntegralPolytope) -> IntegralPolytope:
    m = p.lexmin()
    return p.translate(tuple(-c for c in m))


def pt_equal(x: VirtualPolytope, y: VirtualPolytope) -> bool:
    """Equality in the translation quotient."""
    if x.rank != y.rank:
        raise GeometryError("rank mismatch in pt_equal")
    a = minkowski_sum(x.pos, y.neg)
    b = minkowski_sum(y.pos, x.neg)
    return _normalize_to_origin(a) == _normalize_to_origin(b)


def pt_is_zero(x: VirtualPolytope) -> bool:
    return pt_equal(x, VirtualPolytope.zero(x.rank))


@dataclass(frozen=True)
class TranslationClass:
    """A virtual polytope up to integral translation, stored normalized."""

    vp: VirtualPolytope

    @staticmethod
    def of(x: VirtualPolytope) -> "TranslationClass":
        return TranslationClass(VirtualPolytope(_normalize_to_origin(x.pos),
                                                _normalize_to_origin(x.neg)))

    @property
    def rank(self) -> int:
        return self.vp.rank

    def __eq__(self, other):
        if not isinstance(other, TranslationClass):
            return NotImplemented
        return pt_equal(self.vp, other.vp)

    def __hash__(self):
        # classes have many representatives; hash the translation-invariant
        # homomorphism x -> (seminorm_map(x, cov)) on the covectors
        # e_i and e_i +- e_j, which equal classes share
        r = self.rank
        unit = [tuple(int(t == i) for t in range(r)) for i in range(r)]
        covs = unit + [tuple(a + sgn * b for a, b in zip(unit[i], unit[j]))
                       for i in range(r) for j in range(i + 1, r) for sgn in (1, -1)]
        return hash((r, tuple(seminorm_map(self.vp, cov) for cov in covs)))

    def add(self, other: "TranslationClass") -> "TranslationClass":
        return TranslationClass.of(vp_add(self.vp, other.vp))

    def neg(self) -> "TranslationClass":
        return TranslationClass.of(vp_neg(self.vp))

    def sub(self, other: "TranslationClass") -> "TranslationClass":
        return self.add(other.neg())

    def is_zero(self) -> bool:
        return pt_is_zero(self.vp)


def find_translation_into(a: IntegralPolytope, b: IntegralPolytope):
    """An integral t with a + t contained in b, or None.

    The work is done in b's chart. a fits only if every kernel covector
    is constant on a; then t = embed(s) - a_0 for s in Z^d, and the
    feasible s form the rational erosion of b's coords polytope by a's.
    We intersect it with the lattice by enumerating the integer points
    of its bounding box. b's chart and facets come from its cache
    `chart_facets`, shared with `facet_description`.
    """
    chart, facets = b.chart_facets
    if any(seminorm(a, phi) for phi in chart.kernel):
        return None
    d, a0 = len(chart.basis), a.vertices[0]
    rows, rhs = [], []
    for psi, c in facets:
        phi = chart.pull(psi)
        rows.append(psi)
        rhs.append(c - support(a, phi) + dot(phi, a0))
    # bound each s_j by minimizing s_j and -s_j
    objectives = []
    for j in range(d):
        e = [int(i == j) for i in range(d)]
        objectives += [e, [-x for x in e]]
    values = exactlp.optimize_free(objectives, rows, rhs)
    if values is None:
        return None
    bounds = [range(math.ceil(values[2 * j]), math.floor(-values[2 * j + 1]) + 1)
              for j in range(d)]
    for s in itertools.product(*bounds):
        if all(dot(r, s) <= c for r, c in zip(rows, rhs)):
            return tuple(x - y for x, y in zip(chart.embed(s), a0))
    return None


def leq(x: VirtualPolytope, y: VirtualPolytope) -> bool:
    """Partial order on translation classes: x <= y."""
    if x.rank != y.rank:
        raise GeometryError("rank mismatch in leq")
    a = minkowski_sum(x.pos, y.neg)
    b = minkowski_sum(y.pos, x.neg)
    return find_translation_into(a, b) is not None


def face_map(x: VirtualPolytope, cov) -> VirtualPolytope:
    return VirtualPolytope(face(x.pos, cov), face(x.neg, cov))


def seminorm_map(x: VirtualPolytope, cov) -> int:
    return seminorm(x.pos, cov) - seminorm(x.neg, cov)


# ---------------------------------------------------------------------------
# Detection of genuine polytopes (vertex matching)
# ---------------------------------------------------------------------------

def _solve_difference(p: IntegralPolytope, q: IntegralPolytope):
    """Find S with P = Q + S exactly, else None.

    One rule serves every dimension. For a vertex v of P, the sum phi_v
    of the outer normals of P's facets through v lies inside P's normal
    cone at v, so F_phi(P) = {v}. If P = Q + S, then {v} = F_phi(Q) +
    F_phi(S): the face of Q is one point q_v and v - q_v is a vertex of
    S. The normal fan of P refines that of S (Shephard's summand
    criterion), so every vertex of S is some v - q_v. The final
    Minkowski check makes the answer exact.
    """
    _, ineqs = facet_description(p)
    pieces = []
    for v in p.vertices:
        phi = (0,) * p.rank
        for psi, c in ineqs:
            if dot(psi, v) == c:
                phi = tuple(a + b for a, b in zip(phi, psi))
        fq = face(q, phi)
        if not fq.is_point:
            return None
        pieces.append(tuple(a - b for a, b in zip(v, fq.vertices[0])))
    cand = hull(pieces)
    return cand if minkowski_sum(q, cand) == p else None


def is_polytope(x: VirtualPolytope) -> Optional[IntegralPolytope]:
    """The unique S with x = S - {0} in P(H), if it exists."""
    return _solve_difference(x.pos, x.neg)


def _candidate_directions(x: VirtualPolytope):
    seen = []
    total = minkowski_sum(x.pos, x.neg)
    eqs, ineqs = facet_description(total)
    for phi, _ in ineqs + eqs:
        for cov in (phi, tuple(-c for c in phi)):
            if cov not in seen:
                seen.append(cov)
    for a, b in itertools.combinations(list(seen), 2):
        s = primitive(tuple(u + v for u, v in zip(a, b)))
        if any(c != 0 for c in s) and s not in seen:
            seen.append(s)
    return seen


def is_polytope_certified(x: VirtualPolytope, max_directions: int | None = None):
    """(S, None) on success; (None, certificate direction) on failure.

    The certificate names a covector whose face difference is itself not
    a polytope. The zero covector is always a valid (trivial)
    certificate, and is used when no proper direction is found among the
    sampled candidates. max_directions caps the certificate search.
    """
    s = _solve_difference(x.pos, x.neg)
    if s is not None:
        return s, None
    candidates = _candidate_directions(x)
    if max_directions is not None:
        candidates = candidates[:max_directions]
    for cov in candidates:
        fx = face_map(x, cov)
        shrinks = fx.pos != x.pos or fx.neg != x.neg
        if shrinks and _solve_difference(fx.pos, fx.neg) is None:
            return None, cov
    return None, (0,) * x.rank


# ---------------------------------------------------------------------------
# Polygon edge-decomposition oracle (rank 2)
# ---------------------------------------------------------------------------

def _segment_data(p: IntegralPolytope):
    """(anchor, primitive direction, length) for a point or segment."""
    if p.is_point:
        return p.vertices[0], None, 0
    a, b = p.vertices[0], p.vertices[-1]
    diff = tuple(y - x for x, y in zip(a, b))
    d = primitive(diff)
    length = next(diff[i] // d[i] for i in range(len(d)) if d[i] != 0)
    return a, d, length


def polygon_edges(p: IntegralPolytope) -> dict:
    """Counterclockwise primitive edge directions with lengths.

    Segments contribute both orientations; points contribute nothing.
    """
    if p.rank != 2:
        raise GeometryError("polygon_edges needs rank 2")
    if p.is_point:
        return {}
    verts = list(p.vertices)
    if len(verts) == 2 or p.dim() == 1:
        a, d, l = _segment_data(p)
        return {d: l, tuple(-c for c in d): l}
    ordered = ccw_order(verts)
    edges = {}
    for i in range(len(ordered)):
        a = ordered[i]
        b = ordered[(i + 1) % len(ordered)]
        diff = (b[0] - a[0], b[1] - a[1])
        d = primitive(diff)
        length = max(abs(diff[0]), abs(diff[1])) // max(abs(d[0]), abs(d[1]))
        edges[d] = edges.get(d, 0) + length
    return edges


def polygon_from_edges(edges: dict, rank: int = 2) -> IntegralPolytope:
    """Rebuild a polygon (anchored at the origin) from CCW edge data."""
    items = [(d, l) for d, l in edges.items() if l > 0]
    if not items:
        return origin_polytope(rank)

    items.sort(key=lambda item: ccw_key(item[0]))
    pts = [(0, 0)]
    for d, l in items:
        last = pts[-1]
        pts.append((last[0] + l * d[0], last[1] + l * d[1]))
    closure = pts[-1]
    if closure != (0, 0):
        raise GeometryError("edge data does not close up")
    return hull(pts)


def summand_rank2(p: IntegralPolytope, q: IntegralPolytope):
    """Edge-decomposition oracle: S with P = Q + S up to translation."""
    ep = polygon_edges(p)
    eq = polygon_edges(q)
    residual = dict(ep)
    for d, l in eq.items():
        if residual.get(d, 0) < l:
            return None
        residual[d] = residual[d] - l
    try:
        s = polygon_from_edges(residual)
    except GeometryError:
        return None
    if _normalize_to_origin(minkowski_sum(q, s)) != _normalize_to_origin(p):
        return None
    return s


# ---------------------------------------------------------------------------
# Antisymmetric decomposition: realizing kernel elements of id+* as Y - *Y
# ---------------------------------------------------------------------------

class DecompositionError(ValueError):
    pass


def _halve_polytope(z: IntegralPolytope):
    """Y with Y + Y = Z up to integral translation, or None."""
    n = z.rank
    v0 = z.vertices[0]
    par = tuple(c % 2 for c in v0)
    if any(tuple(c % 2 for c in v) != par for v in z.vertices):
        return None
    half = hull([tuple((c - o) // 2 for c, o in zip(v, v0)) for v in z.vertices])
    check = z.translate(tuple(-c for c in v0))
    if minkowski_sum(half, half) != check:
        return None
    return half


def decompose_antisymmetric(x: VirtualPolytope) -> IntegralPolytope:
    """A polytope Y with x = (Y - {0}) - (*Y - {0}) in the quotient.

    Requires x to lie in the kernel of id + *. Y is Z / 2 for
    Z = x.pos + *x.neg, which is integral exactly when all vertices of Z
    have the same parity; in rank 2 Y may instead come from the edge
    sequence. Adding a centrally symmetric box M = sum [-e_i, e_i] to Z
    cannot help: the vertices of M all have one parity, so Z + M has
    vertices of one parity only when Z does. In rank >= 3 a witness may
    therefore exist and not be found.
    """
    if not pt_is_zero(vp_add(x, involution(x))):
        raise DecompositionError("not in kernel of id+*")
    z = minkowski_sum(x.pos, reflect(x.neg))
    y = _halve_polytope(z)
    if y is None and x.rank == 2:
        w = polygon_edges(x.pos)
        for d, l in polygon_edges(x.neg).items():
            w[tuple(-c for c in d)] = w.get(tuple(-c for c in d), 0) + l
        res = {}
        for d, l in list(w.items()):
            rev = tuple(-c for c in d)
            m = l - w.get(rev, 0)
            if m > 0:
                res[d] = m
        y = polygon_from_edges(res)
    if y is None:
        raise DecompositionError("halving found no integral antisymmetric witness; "
                                 "in rank >= 3 one may still exist")
    wit = vp_sub(VirtualPolytope.from_polytope(y),
                 VirtualPolytope.from_polytope(reflect(y)))
    if not pt_equal(x, wit):
        raise DecompositionError("witness verification failed")
    return y


# ---------------------------------------------------------------------------
# Relative monoid explorer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubLattice:
    basis: tuple[tuple[int, ...], ...]  # columns are generators, n x r

    @property
    def ambient_rank(self) -> int:
        return len(self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    def embed(self, coords) -> tuple:
        return tuple(sum(self.basis[i][j] * coords[j] for j in range(self.rank))
                     for i in range(self.ambient_rank))


@dataclass(frozen=True)
class RelativeMonoidResult:
    status: str  # "yes" | "no_within_bound" | "inconclusive"
    p_witness: Optional[IntegralPolytope] = None
    q_witness: Optional[IntegralPolytope] = None


def in_relative_monoid(x: VirtualPolytope, g: SubLattice, bound: int,
                       budget: int = ZERO_BUDGET_DEFAULT) -> RelativeMonoidResult:
    """Bounded search for x = P - Q with Q supported on the sublattice G."""
    if g.ambient_rank != x.rank:
        raise GeometryError("sublattice rank mismatch")
    r = g.rank
    box = list(itertools.product(range(-bound, bound + 1), repeat=r))
    work = 0
    seen = set()
    for size in range(1, len(box) + 1):
        for combo in itertools.combinations(box, size):
            work += 1
            if work > budget:
                return RelativeMonoidResult("inconclusive")
            pts = [g.embed(c) for c in combo]
            q = hull(pts)
            key = _normalize_to_origin(q).vertices
            if key in seen:
                continue
            seen.add(key)
            cand = vp_add(x, VirtualPolytope.from_polytope(q))
            s = is_polytope(cand)
            if s is not None:
                return RelativeMonoidResult("yes", p_witness=s, q_witness=q)
    return RelativeMonoidResult("no_within_bound")
