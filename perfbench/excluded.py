"""Time the input families the job lists leave out, one input at a time.

    PYTHONPATH=src python3 perfbench/excluded.py FAMILY [--seed N] [--count C] [--limit S]

Each input is drawn with the benchmark's own generators (inputs.py) from
random.Random(f"excluded:{FAMILY}:{seed}"), in order; an input that runs
past --limit seconds is stopped and reported with its index. The
families are those named in the README:

  triple3      det A, det B, det AB for 3x3 monomial matrices over Z^2xZ
  single3-2t   3x3 matrices with 1-2-term entries over Z^2xZ, Heisenberg, Sol
  triple2-2t   det AB for 2x2 A, B with 1-2-term entries, Z^2xZ, Heisenberg, Sol
  rank4-box    facet_description(Q + box) in rank 4
  torus5       both torsion algorithms on random k = 5 twists
  acyclic21    both torsion algorithms on acyclic complexes of ranks
               (2, 3, 1) over Heisenberg and Sol whose two triangular
               blocks both have 1-2-term diagonals
"""

from __future__ import annotations

import argparse
import random
import signal
import time

import polygroup
import inputs

FAMILIES = ("triple3", "single3-2t", "triple2-2t", "rank4-box", "torus5", "acyclic21")


class Limit(Exception):
    pass


def _alarm(signum, frame):
    raise Limit


def draw(family, rng, index):
    """(description, zero-argument call) of input number `index`."""
    gr, sk = polygroup.grouprings, polygroup.skewlaurent
    if family in ("triple3", "single3-2t", "triple2-2t"):
        name, a = list(inputs.GROUPS.items())[0 if family == "triple3" else index % 3]
        g = gr.TwistedGroup.make(2, a)
        el = lambda m: [[gr.GroupRingElement.from_dict(2, e) for e in row] for row in m]
        if family == "single3-2t":
            mats = [inputs.rand_matrix(rng, 2, 3, 2)]
        else:
            n, terms = (3, 1) if family == "triple3" else (2, 2)
            p, q = inputs.rand_matrix(rng, 2, n, terms), inputs.rand_matrix(rng, 2, n, terms)
            mats = [p, q, inputs.mat_product(p, q, a)]
        return name, lambda: [sk.dieudonne_det(el(m), g) for m in mats]
    if family == "rank4-box":
        la = polygroup.lattice
        q = la.hull([tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(5)])
        s = la.hull(inputs.shape("box", 4, [1] * 4, (0,) * 4)[0])
        return "Q + box", lambda: la.facet_description(la.minkowski_sum(q, s))
    to = polygroup.torsion
    if family == "acyclic21":
        name, a = (("heisenberg", inputs.HEISENBERG), ("sol", inputs.SOL))[index % 2]
        spec = inputs.acyclic_complex(rng, 2, a, 2, 1, p_terms=2)
        g = gr.TwistedGroup.make(2, a)
        mats = [[[gr.GroupRingElement.from_dict(2, e) for e in row] for row in m]
                for m in spec["boundaries"]]
        c = to.BasedChainComplex.make(g, spec["ranks"], mats)
        return name, lambda: (to.torsion_polytope(c), to.torsion_via_contraction(c))
    twist = inputs.random_unimodular(rng, 5, 10)
    return str(twist), lambda: [f(to.mapping_torus_complex([list(r) for r in twist]))
                                for f in (to.torsion_polytope, to.torsion_via_contraction)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("family", choices=FAMILIES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--limit", type=float, default=10.0)
    args = ap.parse_args()
    rng = random.Random(f"excluded:{args.family}:{args.seed}")
    signal.signal(signal.SIGALRM, _alarm)
    for index in range(args.count):
        what, call = draw(args.family, rng, index)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, args.limit)
        try:
            call()
            took = f"{time.perf_counter() - t0:.3f} s"
        except Limit:
            took = f"stopped after {args.limit:g} s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(f"{args.family} seed {args.seed} index {index} ({what}): {took}", flush=True)


if __name__ == "__main__":
    main()
