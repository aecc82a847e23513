"""Command-line front end.

Subcommands read a JSON document from a file argument or stdin, dispatch
to the library, and print a JSON result (or SVG via --svg) to stdout or
--output. Exit status: 0 on success, 1 on domain errors (singular
matrix, non-acyclic complex, rank restrictions), 2 on malformed input.

The environment variable POLYGROUP_WORK_BUDGET caps bounded searches
(currently the certificate-direction scan of is-polytope).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import jsonio
from .grouprings import h1_rank
from .jsonio import DomainError, JsonInputError
from .lattice import face, minkowski_sum, seminorm
from .skewlaurent import dieudonne_det
from .svg import render_svg
from .torsion import (
    mapping_torus_complex,
    torsion_polytope,
    torsion_via_contraction,
)
from .vpolytope import (
    TranslationClass,
    face_map,
    decompose_antisymmetric,
    DecompositionError,
    is_polytope_certified,
    leq,
    seminorm_map,
    summand_rank2,
)


def _work_budget() -> int | None:
    raw = os.environ.get("POLYGROUP_WORK_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise JsonInputError("POLYGROUP_WORK_BUDGET must be an integer") from None
    if value < 0:
        raise JsonInputError("POLYGROUP_WORK_BUDGET must be nonnegative")
    return value


def _read_document(args):
    if args.input in (None, "-"):
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise JsonInputError(f"cannot read input: {e}") from None
    doc = jsonio.loads(text)
    if not isinstance(doc, dict):
        raise JsonInputError("input document must be a JSON object")
    if "format" in doc and jsonio.decode_int(doc["format"]) != jsonio.FORMAT_VERSION:
        raise JsonInputError("unsupported format version")
    return doc


def _covector(doc, rank: int):
    if "covector" not in doc:
        raise JsonInputError("missing covector")
    cov = tuple(jsonio._int_list(doc["covector"], "covector"))
    if len(cov) != rank:
        raise JsonInputError(f"covector has length {len(cov)}, expected rank {rank}")
    return cov


def _virtual_of(doc):
    """A virtual polytope given under 'virtual' or as bare pos/neg keys."""
    if "virtual" in doc:
        return jsonio.decode_virtual(doc["virtual"])
    if "pos" in doc and "neg" in doc:
        return jsonio.decode_virtual(doc)
    return None


def _maybe_svg(args, cls: TranslationClass | None):
    if getattr(args, "svg", None) is None:
        return
    if cls is None:
        raise DomainError("no polytope class available for SVG rendering")
    if cls.rank != 2:
        raise DomainError("SVG rendering requires a rank-2 class")
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(render_svg(cls))


# ---------------------------------------------------------------------------
# subcommand handlers: return (payload dict, optional rank-2 class for --svg)
# ---------------------------------------------------------------------------

def _cmd_polytope_sum(args, doc):
    polys = doc.get("polytopes")
    if not isinstance(polys, list) or not polys:
        raise JsonInputError("polytope-sum needs a nonempty polytopes array")
    parts = [jsonio.decode_polytope(p) for p in polys]
    if any(p.rank != parts[0].rank for p in parts):
        raise JsonInputError("polytopes have different ranks")
    total = parts[0]
    for p in parts[1:]:
        total = minkowski_sum(total, p)
    cls = (TranslationClass.of(_vp_from(total)) if total.rank == 2 else None)
    return {"polytope": jsonio.encode_polytope(total)}, cls


def _vp_from(p):
    from .vpolytope import VirtualPolytope
    return VirtualPolytope.from_polytope(p)


def _cmd_polytope_face(args, doc):
    x = _virtual_of(doc)
    if x is not None:
        out = face_map(x, _covector(doc, x.rank))
        return {"virtual": jsonio.encode_virtual(out)}, None
    if "polytope" in doc:
        p = jsonio.decode_polytope(doc["polytope"])
        return {"polytope": jsonio.encode_polytope(face(p, _covector(doc, p.rank)))}, None
    raise JsonInputError("polytope-face needs a polytope or a virtual polytope")


def _cmd_polytope_norm(args, doc):
    x = _virtual_of(doc)
    if x is not None:
        return {"value": jsonio.encode_int(seminorm_map(x, _covector(doc, x.rank)))}, None
    if "polytope" in doc:
        p = jsonio.decode_polytope(doc["polytope"])
        return {"value": jsonio.encode_int(seminorm(p, _covector(doc, p.rank)))}, None
    raise JsonInputError("polytope-norm needs a polytope or a virtual polytope")


def _cmd_is_polytope(args, doc):
    x = _virtual_of(doc)
    if x is None:
        raise JsonInputError("is-polytope needs a virtual polytope")
    s, cert = is_polytope_certified(x, max_directions=_work_budget())
    if args.oracle:
        if x.rank != 2:
            raise DomainError("the edge-decomposition oracle requires rank 2")
        o = summand_rank2(x.pos, x.neg)
        if (s is None) != (o is None):
            raise DomainError("oracle disagreement in is-polytope")
    if s is None:
        return {"polytope": None, "certificate_direction": list(cert)}, None
    cls = TranslationClass.of(_vp_from(s)) if s.rank == 2 else None
    return {"polytope": jsonio.encode_polytope(s)}, cls


def _cmd_decompose(args, doc):
    x = _virtual_of(doc)
    if x is None:
        raise JsonInputError("decompose needs a virtual polytope")
    try:
        y = decompose_antisymmetric(x)
    except DecompositionError as e:
        raise DomainError(str(e)) from None
    cls = TranslationClass.of(_vp_from(y)) if y.rank == 2 else None
    return {"witness": jsonio.encode_polytope(y)}, cls


def _cmd_order(args, doc):
    if "x" not in doc or "y" not in doc:
        raise JsonInputError("order needs virtual polytopes x and y")
    x = jsonio.decode_virtual(doc["x"])
    y = jsonio.decode_virtual(doc["y"])
    if x.rank != y.rank:
        raise JsonInputError("x and y have different ranks")
    return {"leq": leq(x, y), "geq": leq(y, x)}, None


def _decode_group_matrix(doc):
    if "group" not in doc or "matrix" not in doc:
        raise JsonInputError("expected group and matrix fields")
    g = jsonio.decode_group(doc["group"])
    m = jsonio.decode_matrix(doc["matrix"], g.k)
    if not m or len(m) != len(m[0]):
        raise JsonInputError("matrix must be square and nonempty")
    return g, m


def _cmd_det(args, doc):
    g, m = _decode_group_matrix(doc)
    det = dieudonne_det(m, g)
    if det is None:
        raise DomainError("matrix is singular over the skew field")
    payload = {"determinant": {
        "numerator": jsonio.encode_element(det.numerator),
        "denominator": jsonio.encode_element(det.denominator),
        "sign": det.sign,
        "unit_exponent": jsonio.encode_int(det.unit_exponent),
    }}
    return payload, None


def _cmd_matrix_polytope(args, doc):
    g, m = _decode_group_matrix(doc)
    det = dieudonne_det(m, g)
    if det is None:
        raise DomainError("matrix is singular over the skew field")
    cls = det.polytope(g)
    payload = {"h1_rank": h1_rank(g),
               "polytope_class": jsonio.encode_virtual(cls.vp),
               "is_zero": cls.is_zero()}
    return payload, cls if cls.rank == 2 else None


def _rank1_value(cls: TranslationClass) -> int:
    def length(p):
        xs = [v[0] for v in p.vertices]
        return max(xs) - min(xs)
    return length(cls.vp.pos) - length(cls.vp.neg)


def _cmd_torsion(args, doc):
    c = jsonio.decode_complex(doc.get("complex", doc))
    rng = random.Random(args.seed) if args.seed is not None else None
    result = torsion_polytope(c, rng)
    if not result.acyclic:
        raise DomainError("complex is not acyclic over the skew field")
    if args.oracle:
        check = torsion_via_contraction(c, rng)
        if not check.acyclic or check.polytope != result.polytope:
            raise DomainError("oracle disagreement between torsion algorithms")
    cls = result.polytope
    payload = {"acyclic": True,
               "h1_rank": h1_rank(c.group),
               "polytope_class": jsonio.encode_virtual(cls.vp),
               "is_zero": cls.is_zero()}
    if cls.rank == 1:
        payload["polytope_rank1_value"] = jsonio.encode_int(_rank1_value(cls))
    return payload, cls if cls.rank == 2 else None


def _cmd_mapping_torus(args, doc):
    twist = jsonio.loads(args.twist) if args.twist is not None else None
    if twist is None:
        raise JsonInputError("mapping-torus needs --twist")
    if not isinstance(twist, list):
        raise JsonInputError("--twist must be a JSON matrix")
    rows = [jsonio._int_list(r, "twist row") for r in twist]
    if any(len(r) != len(rows) for r in rows):
        raise JsonInputError("--twist must be square")
    try:
        c = mapping_torus_complex(rows)
    except ValueError as e:
        raise JsonInputError(str(e)) from None
    return jsonio.encode_complex(c), None


def _cmd_demo(args, doc):
    from .lattice import hull
    from .torsion import circle_complex
    from .vpolytope import VirtualPolytope

    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    diag = hull([(0, 0), (1, 1)])
    hexagon = minkowski_sum(square, diag)

    circle = torsion_polytope(circle_complex())
    tori = {}
    for name, twist in [("Z^2", [[1]]),
                        ("Heisenberg", [[1, 1], [0, 1]]),
                        ("Sol", [[2, 1], [1, 1]])]:
        c = mapping_torus_complex(twist)
        r = torsion_polytope(c)
        tori[name] = {"h1_rank": h1_rank(c.group),
                      "acyclic": r.acyclic,
                      "polytope_is_zero": r.polytope.is_zero()}

    seg_x = hull([(0, 0), (1, 0)])
    seg_y = hull([(0, 0), (0, 1)])
    _, cert = is_polytope_certified(VirtualPolytope(seg_x, seg_y))

    payload = {
        "minkowski_hexagon": jsonio.encode_polytope(hexagon),
        "circle_torsion": {
            "acyclic": circle.acyclic,
            "polytope_rank1_value": jsonio.encode_int(_rank1_value(circle.polytope)),
        },
        "mapping_tori": tori,
        "segment_difference_certificate": list(cert),
    }
    cls = TranslationClass.of(_vp_from(hexagon))
    return payload, cls


_HANDLERS = {
    "polytope-sum": (_cmd_polytope_sum, True),
    "polytope-face": (_cmd_polytope_face, True),
    "polytope-norm": (_cmd_polytope_norm, True),
    "is-polytope": (_cmd_is_polytope, True),
    "decompose": (_cmd_decompose, True),
    "order": (_cmd_order, True),
    "det": (_cmd_det, True),
    "matrix-polytope": (_cmd_matrix_polytope, True),
    "torsion": (_cmd_torsion, True),
    "mapping-torus": (_cmd_mapping_torus, False),
    "demo": (_cmd_demo, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygroup",
        description="Exact polytope-group and torsion-polytope computations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, takes_input) in _HANDLERS.items():
        p = sub.add_parser(name)
        if takes_input:
            p.add_argument("input", nargs="?", default=None,
                           help="input JSON file (default: stdin)")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        if name in ("polytope-sum", "is-polytope", "decompose",
                    "matrix-polytope", "torsion", "demo"):
            p.add_argument("--svg", default=None,
                           help="write an SVG rendering of the rank-2 result")
        if name in ("is-polytope", "torsion"):
            p.add_argument("--oracle", action="store_true",
                           help="cross-check with the secondary algorithm")
        if name == "torsion":
            p.add_argument("--seed", type=int, default=None,
                           help="randomize the admissible subset choice")
        if name == "mapping-torus":
            p.add_argument("--twist", required=True,
                           help="square unimodular integer matrix as JSON")
    return parser


def _emit(args, text: str):
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, takes_input = _HANDLERS[args.subcommand]
    try:
        doc = _read_document(args) if takes_input and args.subcommand != "demo" \
            else {}
        payload, cls = handler(args, doc)
        _maybe_svg(args, cls)
    except JsonInputError as e:
        _emit(args, jsonio.dumps({"error": str(e)}))
        return 2
    except DomainError as e:
        _emit(args, jsonio.dumps({"error": str(e)}))
        return 1
    _emit(args, jsonio.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
