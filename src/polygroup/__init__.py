"""Exact integral polytope groups, twisted Laurent determinants, and
torsion polytopes of chain complexes over groups Z^k x| Z."""

from .lattice import (
    AffineLatticeMap,
    GeometryError,
    IntegralPolytope,
    face,
    facet_normals,
    hull,
    minkowski_sum,
    pushforward,
    reflect,
    seminorm,
    subset,
    support,
)
from .vpolytope import (
    SubLattice,
    TranslationClass,
    VirtualPolytope,
    decompose_antisymmetric,
    face_map,
    in_relative_monoid,
    involution,
    is_polytope,
    is_polytope_certified,
    leq,
    pt_equal,
    seminorm_map,
    vp_add,
    vp_equal,
    vp_neg,
    vp_sub,
)
from .grouprings import (
    GroupRingElement,
    SmithDecomposition,
    TwistedGroup,
    element_polytope,
    gr_mul,
    h1_projection,
    h1_rank,
    snf,
)
from .skewlaurent import (
    DetClass,
    SkewLaurentPoly,
    dieudonne_det,
    matrix_polytope,
    rank_over_skew_field,
    skew_divmod,
)
from .torsion import (
    BasedChainComplex,
    TorsionResult,
    circle_complex,
    is_l2_acyclic,
    mapping_torus_complex,
    stabilize,
    torsion_polytope,
    torsion_via_contraction,
)
from .svg import render_svg

__version__ = "0.1.0"
