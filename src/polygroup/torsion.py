"""Based free chain complexes over QG and their torsion polytopes.

A complex is a finite sequence of free based modules C_n with boundary
matrices over the rational group ring of G = Z^k x| Z. When the complex
becomes exact over the skew field of fractions, its Reidemeister
torsion is defined in the abelianized units of that field, and its
image under the polytope homomorphism (negated) is the torsion
polytope of the complex.

Two independent algorithms are provided: the alternating-subdeterminant
method and the chain-contraction method, which computes one large
determinant of (boundary + contraction) restricted to odd degrees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb as _comb


def comb(n: int, r: int) -> int:
    return _comb(n, r) if 0 <= r <= n else 0

from .grouprings import (
    GroupRingElement,
    TwistedGroup,
    element_polytope,
    gr_mul,
)
from .skewlaurent import (
    dieudonne_det,
    rank_over_skew_field,
    _eliminate,
    _matrix_to_skew,
)
from .vpolytope import TranslationClass


class ChainComplexError(ValueError):
    pass


@dataclass(frozen=True)
class BasedChainComplex:
    """ranks = (c_0, ..., c_N); boundaries[n-1] is the matrix of
    d_n: C_n -> C_{n-1}, with shape c_{n-1} x c_n."""

    group: TwistedGroup
    ranks: tuple[int, ...]
    boundaries: tuple[tuple[tuple[GroupRingElement, ...], ...], ...]

    @staticmethod
    def make(group: TwistedGroup, ranks, boundaries) -> "BasedChainComplex":
        ranks = tuple(int(r) for r in ranks)
        mats = tuple(tuple(tuple(row) for row in m) for m in boundaries)
        c = BasedChainComplex(group, ranks, mats)
        ok, msg = c.check()
        if not ok:
            raise ChainComplexError(msg)
        return c

    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, n: int):
        """Matrix of d_n as a list of rows; zero-sized for n out of range."""
        if 1 <= n <= self.top_degree():
            return [list(row) for row in self.boundaries[n - 1]]
        rows = self.ranks[n - 1] if 1 <= n <= len(self.ranks) else 0
        return [[] for _ in range(rows)]

    def check(self):
        """Shape and d o d = 0 verification; returns (ok, message)."""
        g = self.group
        if any(r < 0 for r in self.ranks):
            return False, "ranks must be nonnegative"
        if len(self.boundaries) != max(len(self.ranks) - 1, 0):
            return False, "boundary count does not match rank count"
        for n in range(1, len(self.ranks)):
            m = self.boundaries[n - 1]
            if len(m) != self.ranks[n - 1]:
                return False, f"boundary {n}: expected {self.ranks[n - 1]} rows"
            for row in m:
                if len(row) != self.ranks[n]:
                    return False, f"boundary {n}: expected {self.ranks[n]} columns"
                for e in row:
                    if e.k != g.k:
                        return False, f"boundary {n}: entry over wrong group"
        for n in range(2, len(self.ranks)):
            a = self.boundaries[n - 2]
            b = self.boundaries[n - 1]
            for i in range(self.ranks[n - 2]):
                for j in range(self.ranks[n]):
                    acc = GroupRingElement.zero(g.k)
                    for l in range(self.ranks[n - 1]):
                        acc = acc + gr_mul(a[i][l], b[l][j], g)
                    if not acc.is_zero:
                        return False, f"d{n - 1} d{n} != 0 at entry ({i}, {j})"
        return True, "ok"


def validate(c: BasedChainComplex) -> bool:
    return c.check()[0]


def is_l2_acyclic(c: BasedChainComplex) -> bool:
    """Exactness after passing to the skew field of fractions:
    rank d_n + rank d_{n+1} = c_n in every degree n."""
    ranks_d = [0] + [rank_over_skew_field(m, c.group) for m in c.boundaries] + [0]
    return all(ranks_d[n] + ranks_d[n + 1] == c.ranks[n]
               for n in range(len(c.ranks)))


@dataclass(frozen=True)
class TorsionResult:
    acyclic: bool
    polytope: TranslationClass | None


def _zero_class(g: TwistedGroup) -> TranslationClass:
    return element_polytope(GroupRingElement.one(g.k), g)


def _choose_subsets(c: BasedChainComplex, rng: random.Random | None):
    """Column sets S_n and row sets R_{n-1} with d_n[R_{n-1}, S_n]
    invertible over the skew field, or None when the complex is not
    exact over it. Both torsion algorithms use this as their only
    acyclicity test.

    Built from the top degree down: S_N holds every basis element of
    C_N, R_{n-1} is a set of |S_n| rows of d_n independent on the columns
    S_n (tried in the order rng shuffles), and S_{n-1} is its complement;
    S_0 must end up empty. Since d o d = 0 (BasedChainComplex.make
    checks it), success is the same as exactness:

    - If every stage succeeds, then rank d_n >= |S_n| and c_n = |S_n| +
      |R_n| = |S_n| + |S_{n+1}|, so rank d_n + rank d_{n+1} >= c_n, and
      d o d = 0 gives <=.
    - If the complex is exact and rank d_{n+1} = |S_{n+1}| (true at the
      top), then, d_{n+1}[R_n, S_{n+1}] being invertible, projecting
      im d_{n+1} onto the coordinates R_n is onto, and injective as both
      sides have dimension |S_{n+1}|. So ker d_n = im d_{n+1} meets the
      span of S_n in 0: the columns S_n of d_n are independent, the
      stage succeeds, and rank d_n = c_n - |S_{n+1}| = |S_n|; at the
      bottom, |S_0| = rank d_0 = 0.
    """
    if not c.ranks:  # the zero complex is exact
        return {}, {}
    g = c.group
    top = c.top_degree()
    s = {top: list(range(c.ranks[top]))}
    r = {}
    for n in range(top, 0, -1):
        cols = s[n]
        mat = c.boundary(n)
        order = list(range(c.ranks[n - 1]))
        if rng is not None:
            rng.shuffle(order)
        rows = _matrix_to_skew([[mat[i][j] for j in cols] for i in order], g)
        rank, labels, _ = _eliminate(rows, full_rank=True)
        if rank != len(cols):
            return None
        r[n - 1] = sorted(order[t] for t in labels[:rank])
        s[n - 1] = sorted(set(range(c.ranks[n - 1])) - set(r[n - 1]))
    if s[0]:
        return None
    return s, r


def torsion_polytope(c: BasedChainComplex,
                     rng: random.Random | None = None) -> TorsionResult:
    """Torsion polytope by the alternating-subdeterminant algorithm.

    The subsets may be randomized through rng; the resulting class is
    independent of any admissible choice.
    """
    g = c.group
    picked = _choose_subsets(c, rng)
    if picked is None:
        return TorsionResult(False, None)
    s, r = picked
    pol = _zero_class(g)
    for n in range(1, len(c.ranks)):
        cols = s[n]
        if not cols:
            continue
        mat = c.boundary(n)
        sub = [[mat[i][j] for j in cols] for i in r[n - 1]]
        det = dieudonne_det(sub, g)
        if det is None:
            return TorsionResult(False, None)
        p = det.polytope(g)
        pol = pol.add(p) if n % 2 == 1 else pol.sub(p)
    return TorsionResult(True, pol.neg())


def torsion_via_contraction(c: BasedChainComplex,
                            rng: random.Random | None = None) -> TorsionResult:
    """Torsion polytope via a chain contraction.

    A contraction gamma with d gamma + gamma d = id restricted to odd
    degrees has the form gamma = L M^{-1} R, where M is the block
    diagonal of the invertible boundary submatrices d_{n+1}[R_n, S_{n+1}]
    and L, R are coordinate inclusions and projections. The torsion is
    the determinant class of (d + gamma)_odd, which is evaluated without
    any skew-field fractions through the Schur-complement identity

        det(B + L M^{-1} R) = det([[M, R], [-L, B]]) / det(M),

    whose right-hand side involves only group-ring matrices.
    """
    g = c.group
    picked = _choose_subsets(c, rng)
    if picked is None:
        return TorsionResult(False, None)
    s, r = picked
    nmods = len(c.ranks)
    odd = [n for n in range(nmods) if n % 2 == 1]
    even = [n for n in range(nmods) if n % 2 == 0]
    # gamma_n is nonzero only for odd n with S_{n+1} nonempty
    blocks = [n for n in odd if n + 1 < nmods and s[n + 1]]
    m_base = {}
    q = 0
    for n in blocks:
        m_base[n] = q
        q += len(s[n + 1])
    row_base = {}
    acc = q
    for n in even:
        row_base[n] = acc
        acc += c.ranks[n]
    col_base = {}
    acc = q
    for n in odd:
        col_base[n] = acc
        acc += c.ranks[n]
    size = acc
    zero = GroupRingElement.zero(g.k)
    one = GroupRingElement.one(g.k)
    big = [[zero for _ in range(size)] for _ in range(size)]
    pol = _zero_class(g)
    for n in blocks:
        mat = c.boundary(n + 1)
        sub = [[mat[i][j] for j in s[n + 1]] for i in r[n]]
        det_m = dieudonne_det(sub, g)
        if det_m is None:
            return TorsionResult(False, None)
        pol = pol.sub(det_m.polytope(g))
        base = m_base[n]
        for t in range(len(sub)):
            for t2 in range(len(sub)):
                big[base + t][base + t2] = sub[t][t2]
        # projection onto the pivot rows R_n of C_n
        for t, j in enumerate(r[n]):
            big[base + t][col_base[n] + j] = one
        # minus the inclusion of the columns S_{n+1} into C_{n+1}
        for t, i in enumerate(s[n + 1]):
            big[row_base[n + 1] + i][base + t] = -one
    for n in odd:
        mat = c.boundary(n)
        for i in range(c.ranks[n - 1]):
            for j in range(c.ranks[n]):
                big[row_base[n - 1] + i][col_base[n] + j] = mat[i][j]
    det_big = dieudonne_det(big, g)
    if det_big is None:
        return TorsionResult(False, None)
    pol = pol.add(det_big.polytope(g))
    return TorsionResult(True, pol.neg())


def _koszul_boundary(k: int, n: int, gens):
    """Koszul differential matrix from n-subsets to (n-1)-subsets of 1..k.

    gens[i] is the group ring element placed with the usual alternating
    signs; entries lie in the commutative fiber subring.
    """
    from itertools import combinations
    if n < 1 or n > k:
        return [], [], []
    cols = list(combinations(range(k), n))
    rows = list(combinations(range(k), n - 1))
    row_index = {s: i for i, s in enumerate(rows)}
    zero = GroupRingElement.zero(k)
    mat = [[zero] * len(cols) for _ in range(len(rows))]
    for cj, csub in enumerate(cols):
        for pos, i in enumerate(csub):
            rsub = tuple(x for x in csub if x != i)
            entry = gens[i] if pos % 2 == 0 else -gens[i]
            mat[row_index[rsub]][cj] = entry
    return mat, rows, cols


def _geometric_factor(k: int, j: int, m: int) -> GroupRingElement:
    """c with x_j^m - 1 = (x_j - 1) c in the fiber subring."""
    terms = {}
    if m > 0:
        for t in range(m):
            e = [0] * k
            e[j] = t
            terms[(tuple(e), 0)] = 1
    elif m < 0:
        for t in range(m, 0):
            e = [0] * k
            e[j] = t
            terms[(tuple(e), 0)] = -1
    return GroupRingElement.from_dict(k, terms)


def _twist_cofactors(g: TwistedGroup):
    """Matrix c with x^(A e_i) - 1 = sum_j c[j][i] (x_j - 1), entries in
    the fiber subring, via telescoping over the coordinates."""
    k = g.k
    out = [[GroupRingElement.zero(k) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        w = [g.twist[r][i] for r in range(k)]
        prefix = [0] * k
        for j in range(k):
            geo = _geometric_factor(k, j, w[j])
            pre = GroupRingElement.monomial(k, tuple(prefix), 0)
            out[j][i] = gr_mul(pre, geo, g)
            prefix[j] = w[j]
    return out


def mapping_torus_complex(a_matrix) -> BasedChainComplex:
    """Free resolution complex for G = Z^k x|_A Z as a mapping cone.

    The Koszul complex of the fiber lattice is combined with the
    monodromy chain map; the cone has ranks C(k, n) + C(k, n-1) and is
    exact over the skew field for every unimodular twist.
    """
    from itertools import combinations
    k = len(a_matrix)
    g = TwistedGroup.make(k, a_matrix if k else [])
    u = GroupRingElement.monomial(k, (0,) * k, 1)
    one = GroupRingElement.one(k)
    gens = []
    for i in range(k):
        e = [0] * k
        e[i] = 1
        gens.append(GroupRingElement.monomial(k, tuple(e), 0) - one)
    cof = _twist_cofactors(g)

    def koszul(n):
        mat, _, _ = _koszul_boundary(k, n, gens)
        return mat

    def monodromy(n):
        """I - Lambda^n(cof) u on the degree-n Koszul module."""
        subs = list(combinations(range(k), n))
        size = len(subs)
        out = [[GroupRingElement.zero(k) for _ in range(size)] for _ in range(size)]
        for ci, csub in enumerate(subs):
            for ri, rsub in enumerate(subs):
                # minor of cof with rows rsub, columns csub, Leibniz expansion
                from itertools import permutations
                acc = GroupRingElement.zero(k)
                for perm in permutations(range(n)):
                    invs = sum(1 for x in range(n) for y in range(x + 1, n)
                               if perm[x] > perm[y])
                    term = GroupRingElement.one(k).scale(-1 if invs % 2 else 1)
                    for x in range(n):
                        term = gr_mul(term, cof[rsub[x]][csub[perm[x]]], g)
                    acc = acc + term
                val = gr_mul(acc, u, g)
                out[ri][ci] = (one - val) if ri == ci else -val
        return out

    ranks = tuple(comb(k, n) + comb(k, n - 1) for n in range(k + 2))
    boundaries = []
    for n in range(1, k + 2):
        kn = koszul(n)            # C(k,n-1) x C(k,n)
        kn1 = koszul(n - 1)       # C(k,n-2) x C(k,n-1)
        phi = monodromy(n - 1)    # C(k,n-1) square
        rows = comb(k, n - 1) + comb(k, n - 2)
        cols = comb(k, n) + comb(k, n - 1)
        mat = [[GroupRingElement.zero(k) for _ in range(cols)] for _ in range(rows)]
        for i in range(comb(k, n - 1)):
            for j in range(comb(k, n)):
                mat[i][j] = kn[i][j]
            for j in range(comb(k, n - 1)):
                mat[i][comb(k, n) + j] = phi[i][j]
        for i in range(comb(k, n - 2)):
            for j in range(comb(k, n - 1)):
                mat[comb(k, n - 1) + i][comb(k, n) + j] = -kn1[i][j]
        boundaries.append(mat)
    return BasedChainComplex.make(g, ranks, boundaries)


def circle_complex() -> BasedChainComplex:
    """The complex 0 -> QG -> QG -> 0 with boundary u - 1 over G = Z."""
    g = TwistedGroup.make(0, [])
    u = GroupRingElement.monomial(0, (), 1)
    one = GroupRingElement.one(0)
    return BasedChainComplex.make(g, (1, 1), [[[u - one]]])


def stabilize(c: BasedChainComplex, degree: int) -> BasedChainComplex:
    """Direct sum with 0 -> QG -(id)-> QG -> 0 in degrees (degree, degree-1)."""
    if not (1 <= degree <= len(c.ranks)):
        raise ChainComplexError("stabilization degree out of range")
    g = c.group
    nmods = max(len(c.ranks), degree + 1)
    ranks = [c.ranks[n] if n < len(c.ranks) else 0 for n in range(nmods)]
    ranks[degree] += 1
    ranks[degree - 1] += 1
    zero = GroupRingElement.zero(g.k)
    boundaries = []
    for n in range(1, nmods):
        old = c.boundary(n)
        rows = ranks[n - 1]
        cols = ranks[n]
        mat = [[zero for _ in range(cols)] for _ in range(rows)]
        old_rows = c.ranks[n - 1] if n - 1 < len(c.ranks) else 0
        old_cols = c.ranks[n] if n < len(c.ranks) else 0
        for i in range(old_rows):
            for j in range(old_cols):
                mat[i][j] = old[i][j]
        if n == degree:
            mat[rows - 1][cols - 1] = GroupRingElement.one(g.k)
        boundaries.append(mat)
    return BasedChainComplex.make(g, tuple(ranks), boundaries)
