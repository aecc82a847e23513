import random
from fractions import Fraction

import pytest

from gen import HEISENBERG, rand_element, random_acyclic_complex, random_polytope
from polygroup import jsonio
from polygroup.grouprings import TwistedGroup
from polygroup.lattice import hull
from polygroup.torsion import circle_complex, mapping_torus_complex
from polygroup.vpolytope import VirtualPolytope, vp_equal


def test_polytope_roundtrip_and_canonicalization():
    rng = random.Random(0)
    for _ in range(10):
        p = random_polytope(rng, 3)
        assert jsonio.decode_polytope(jsonio.encode_polytope(p)) == p
    # non-canonical input (redundant points) is canonicalized on load
    obj = {"rank": 2, "vertices": [[0, 0], [2, 0], [1, 0], [1, 1]]}
    assert jsonio.decode_polytope(obj) == hull([(0, 0), (2, 0), (1, 1)])


def test_virtual_roundtrip():
    rng = random.Random(1)
    for _ in range(10):
        x = VirtualPolytope(random_polytope(rng, 2), random_polytope(rng, 2))
        y = jsonio.decode_virtual(jsonio.encode_virtual(x))
        assert vp_equal(x, y)


def test_big_integers_become_strings():
    big = 2**70
    p = hull([(0,), (big,)])
    obj = jsonio.encode_polytope(p)
    flat = [c for v in obj["vertices"] for c in v]
    assert str(big) in flat
    assert jsonio.decode_polytope(obj) == p


def test_group_roundtrip_and_validation():
    g = TwistedGroup.make(2, HEISENBERG)
    assert jsonio.decode_group(jsonio.encode_group(g)) == g
    with pytest.raises(jsonio.JsonInputError):
        jsonio.decode_group({"k": 2, "twist": [[2, 0], [0, 1]]})
    with pytest.raises(jsonio.JsonInputError):
        jsonio.decode_group({"k": 2, "twist": [[1, 0]]})


def test_element_roundtrip():
    rng = random.Random(2)
    g = TwistedGroup.make(2, HEISENBERG)
    for _ in range(10):
        a = rand_element(g, rng, 4)
        assert jsonio.decode_element(jsonio.encode_element(a), 2) == a
    # fractional coefficients survive exactly
    from polygroup.grouprings import GroupRingElement
    a = GroupRingElement.from_dict(2, {((1, 0), 3): Fraction(22, 7)})
    out = jsonio.encode_element(a)
    assert out[0]["coeff"] == "22/7"
    assert jsonio.decode_element(out, 2) == a


def test_element_rejects_floats():
    with pytest.raises(jsonio.JsonInputError):
        jsonio.decode_element([{"coeff": 1.5, "v": [0, 0], "m": 0}], 2)


def test_matrix_roundtrip():
    rng = random.Random(3)
    g = TwistedGroup.make(2, HEISENBERG)
    m = [[rand_element(g, rng) for _ in range(3)] for _ in range(2)]
    assert jsonio.decode_matrix(jsonio.encode_matrix(m), 2) == m
    with pytest.raises(jsonio.JsonInputError):
        jsonio.decode_matrix([[jsonio.encode_element(m[0][0])], []], 2)


def test_complex_roundtrip():
    for c in (circle_complex(), mapping_torus_complex(HEISENBERG),
              random_acyclic_complex(TwistedGroup.make(2, HEISENBERG),
                                     random.Random(4), 2, 1)):
        out = jsonio.decode_complex(jsonio.encode_complex(c))
        assert out.group == c.group
        assert out.ranks == c.ranks
        assert out.boundaries == c.boundaries


def test_complex_validates_d_squared():
    from polygroup.grouprings import GroupRingElement
    g = TwistedGroup.make(0, [])
    one = GroupRingElement.one(0)
    doc = {"group": {"k": 0, "twist": []}, "ranks": [1, 1, 1],
           "boundaries": [jsonio.encode_matrix([[one]]),
                          jsonio.encode_matrix([[one]])]}
    with pytest.raises(jsonio.JsonInputError):
        jsonio.decode_complex(doc)


def test_loads_reports_byte_offset():
    with pytest.raises(jsonio.JsonInputError) as e:
        jsonio.loads('{"a": [1, }')
    assert "byte offset 10" in str(e.value)


def test_dumps_stamps_format():
    import json
    doc = json.loads(jsonio.dumps({"x": 1}))
    assert doc["format"] == 1 and doc["x"] == 1
