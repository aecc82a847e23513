import json
import os

import pytest

from polygroup import jsonio
from polygroup.cli import main
from polygroup.grouprings import TwistedGroup
from polygroup.lattice import GeometryError, hull, minkowski_sum
from polygroup.svg import render_svg
from polygroup.torsion import mapping_torus_complex
from polygroup.vpolytope import TranslationClass, VirtualPolytope

HEISENBERG = [[1, 1], [0, 1]]


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_polytope_sum_hexagon(tmp_path, capsys):
    doc = {"polytopes": [
        {"rank": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
        {"rank": 2, "vertices": [[0, 0], [1, 1]]}]}
    code, out = run(capsys, ["polytope-sum", write_doc(tmp_path, "a.json", doc)])
    assert code == 0
    result = json.loads(out)
    assert result["format"] == 1
    got = jsonio.decode_polytope(result["polytope"])
    assert set(got.vertices) == {(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)}


def test_polytope_face_and_norm(tmp_path, capsys):
    doc = {"polytope": {"rank": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
           "covector": [1, 0]}
    code, out = run(capsys, ["polytope-face", write_doc(tmp_path, "b.json", doc)])
    assert code == 0
    assert jsonio.decode_polytope(json.loads(out)["polytope"]) == \
        hull([(1, 0), (1, 1)])
    code, out = run(capsys, ["polytope-norm", write_doc(tmp_path, "c.json", doc)])
    assert code == 0
    assert json.loads(out)["value"] == 1


@pytest.mark.parametrize("subcommand", ["polytope-face", "polytope-norm"])
@pytest.mark.parametrize("form", [
    {"polytope": {"rank": 2, "vertices": [[0, 0], [1, 0]]}},
    {"virtual": {"pos": {"rank": 2, "vertices": [[0, 0], [1, 0]]},
                 "neg": {"rank": 2, "vertices": [[0, 0]]}}},
])
@pytest.mark.parametrize("covector", [[1, 0, 0], [1]])
def test_covector_length_mismatch_exit_2(tmp_path, capsys, subcommand, form, covector):
    doc = dict(form, covector=covector)
    code, out = run(capsys, [subcommand, write_doc(tmp_path, "cov.json", doc)])
    assert code == 2
    assert "covector" in json.loads(out)["error"]


def test_is_polytope_failure_certificate(tmp_path, capsys):
    doc = {"pos": {"rank": 2, "vertices": [[0, 0], [1, 0]]},
           "neg": {"rank": 2, "vertices": [[0, 0], [0, 1]]}}
    code, out = run(capsys, ["is-polytope", "--oracle",
                             write_doc(tmp_path, "d.json", doc)])
    assert code == 0
    result = json.loads(out)
    assert result["polytope"] is None
    assert isinstance(result["certificate_direction"], list)


def test_is_polytope_success(tmp_path, capsys):
    q = hull([(0, 0), (2, 0), (0, 2)])
    s = hull([(0, 0), (1, 1)])
    doc = {"pos": jsonio.encode_polytope(minkowski_sum(q, s)),
           "neg": jsonio.encode_polytope(q)}
    code, out = run(capsys, ["is-polytope", write_doc(tmp_path, "e.json", doc)])
    assert code == 0
    got = jsonio.decode_polytope(json.loads(out)["polytope"])
    assert got == s  # canonical translation, lexmin at origin


def test_order(tmp_path, capsys):
    doc = {"x": {"pos": {"rank": 1, "vertices": [[0], [1]]},
                 "neg": {"rank": 1, "vertices": [[0]]}},
           "y": {"pos": {"rank": 1, "vertices": [[0], [2]]},
                 "neg": {"rank": 1, "vertices": [[0]]}}}
    code, out = run(capsys, ["order", write_doc(tmp_path, "f.json", doc)])
    assert code == 0
    result = json.loads(out)
    assert result["leq"] is True and result["geq"] is False


def test_decompose(tmp_path, capsys):
    t = hull([(0, 0), (1, 0), (0, 1)])
    from polygroup.lattice import reflect
    doc = {"pos": jsonio.encode_polytope(t),
           "neg": jsonio.encode_polytope(reflect(t))}
    code, out = run(capsys, ["decompose", write_doc(tmp_path, "g.json", doc)])
    assert code == 0
    assert "witness" in json.loads(out)
    # non-kernel input is a domain error
    doc = {"pos": jsonio.encode_polytope(hull([(0, 0), (2, 0)])),
           "neg": jsonio.encode_polytope(hull([(0, 0)]))}
    code, out = run(capsys, ["decompose", write_doc(tmp_path, "h.json", doc)])
    assert code == 1
    assert "error" in json.loads(out)


def test_det_and_matrix_polytope(tmp_path, capsys):
    g = TwistedGroup.make(2, HEISENBERG)
    from gen import invertible_product
    import random
    m = invertible_product(g, random.Random(5), 2, 4)
    doc = {"group": jsonio.encode_group(g), "matrix": jsonio.encode_matrix(m)}
    path = write_doc(tmp_path, "i.json", doc)
    code, out = run(capsys, ["det", path])
    assert code == 0
    assert "determinant" in json.loads(out)
    code, out = run(capsys, ["matrix-polytope", path])
    assert code == 0
    result = json.loads(out)
    assert result["h1_rank"] == 2
    # singular matrix: domain error, exit 1
    a = m[0][0]
    doc = {"group": jsonio.encode_group(g),
           "matrix": jsonio.encode_matrix([[a, a], [a, a]])}
    code, out = run(capsys, ["det", write_doc(tmp_path, "j.json", doc)])
    assert code == 1
    assert "singular" in json.loads(out)["error"]


def test_torsion_on_bundled_circle_file(capsys):
    import polygroup
    path = os.path.join(os.path.dirname(polygroup.__file__), "data",
                        "circle_complex.json")
    code, out = run(capsys, ["torsion", path])
    assert code == 0
    result = json.loads(out)
    assert result["acyclic"] is True
    assert result["polytope_rank1_value"] == -1


def test_mapping_torus_pipes_into_torsion(tmp_path, capsys):
    code, out = run(capsys, ["mapping-torus", "--twist", "[[1,1],[0,1]]"])
    assert code == 0
    path = tmp_path / "heis.json"
    path.write_text(out)
    code, out = run(capsys, ["torsion", "--oracle", str(path)])
    assert code == 0
    result = json.loads(out)
    assert result["acyclic"] is True
    assert result["is_zero"] is True
    assert result["h1_rank"] == 2


def test_torsion_non_acyclic_is_domain_error(tmp_path, capsys):
    doc = {"group": {"k": 0, "twist": []}, "ranks": [1, 1],
           "boundaries": [[[[]]]]}
    code, out = run(capsys, ["torsion", write_doc(tmp_path, "k.json", doc)])
    assert code == 1
    assert "error" in json.loads(out)


def test_torsion_negative_rank_exit_2(tmp_path, capsys):
    doc = {"group": {"k": 0, "twist": []}, "ranks": [-1], "boundaries": []}
    code, out = run(capsys, ["torsion", write_doc(tmp_path, "neg.json", doc)])
    assert code == 2
    assert "nonnegative" in json.loads(out)["error"]


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"pos": [')
    code, out = run(capsys, ["is-polytope", str(path)])
    assert code == 2
    assert "byte offset" in json.loads(out)["error"]


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as e:
        main(["torsion", "--bogus"])
    assert e.value.code == 2


def test_emitted_json_reparses(tmp_path, capsys):
    code, out = run(capsys, ["mapping-torus", "--twist", "[[2,1],[1,1]]"])
    assert code == 0
    c = jsonio.decode_complex(json.loads(out))
    assert c.ranks == mapping_torus_complex([[2, 1], [1, 1]]).ranks


def test_demo_byte_identical(capsys):
    code1, out1 = run(capsys, ["demo"])
    code2, out2 = run(capsys, ["demo"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["circle_torsion"]["polytope_rank1_value"] == -1
    assert all(v["polytope_is_zero"] for v in doc["mapping_tori"].values())


def test_work_budget_env(tmp_path, capsys, monkeypatch):
    doc = {"pos": {"rank": 2, "vertices": [[0, 0], [1, 0]]},
           "neg": {"rank": 2, "vertices": [[0, 0], [0, 1]]}}
    path = write_doc(tmp_path, "w.json", doc)
    monkeypatch.setenv("POLYGROUP_WORK_BUDGET", "0")
    code, out = run(capsys, ["is-polytope", path])
    assert code == 0
    # with no budget the search falls back to the trivial certificate
    assert json.loads(out)["certificate_direction"] == [0, 0]
    monkeypatch.setenv("POLYGROUP_WORK_BUDGET", "not-a-number")
    code, out = run(capsys, ["is-polytope", path])
    assert code == 2


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def cls_of(p):
    return TranslationClass.of(VirtualPolytope.from_polytope(p))


def test_svg_square():
    svg = render_svg(cls_of(hull([(0, 0), (1, 0), (0, 1), (1, 1)])))
    assert svg.startswith("<?xml")
    path = [l for l in svg.splitlines() if "<path" in l]
    assert len(path) == 1
    # 4 vertices in the closed path: M + 3 L + Z
    assert path[0].count("L") == 3 and "Z" in path[0]


def test_svg_point_marker():
    svg = render_svg(cls_of(hull([(3, 4)])))
    assert "<path" not in svg
    assert 'r="4"' in svg


def test_svg_hexagon():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    diag = hull([(0, 0), (1, 1)])
    svg = render_svg(cls_of(minkowski_sum(square, diag)))
    path = [l for l in svg.splitlines() if "<path" in l][0]
    assert path.count("L") == 5  # six boundary vertices


def test_svg_hexagon_path_order():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    diag = hull([(0, 0), (1, 1)])
    svg = render_svg(cls_of(minkowski_sum(square, diag)))
    # counterclockwise around the centroid, from the first vertex at angle >= 0
    assert '<path d="M 120 80 L 120 40 L 80 40 L 40 80 L 40 120 L 80 120 Z"' in svg


def test_svg_byte_stable_and_translation_canonical():
    p = hull([(0, 0), (2, 1), (1, 3)])
    a = render_svg(cls_of(p))
    assert a == render_svg(cls_of(p))
    assert a == render_svg(cls_of(p.translate((7, -5))))


def test_svg_rank_restriction():
    with pytest.raises(GeometryError):
        render_svg(cls_of(hull([(0,), (1,)])))


def test_svg_virtual_class_draws_both_parts():
    x = VirtualPolytope(hull([(0, 0), (1, 0)]), hull([(0, 0), (0, 1)]))
    svg = render_svg(TranslationClass.of(x))
    assert "stroke-dasharray" in svg


def test_cli_svg_flag(tmp_path, capsys):
    doc = {"polytopes": [
        {"rank": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}]}
    out_svg = tmp_path / "out.svg"
    code, _ = run(capsys, ["polytope-sum", write_doc(tmp_path, "s.json", doc),
                           "--svg", str(out_svg)])
    assert code == 0
    assert out_svg.read_text().startswith("<?xml")
    # rank-1 result cannot be rendered
    doc = {"polytopes": [{"rank": 1, "vertices": [[0], [1]]}]}
    code, out = run(capsys, ["polytope-sum", write_doc(tmp_path, "t.json", doc),
                             "--svg", str(out_svg)])
    assert code == 1
