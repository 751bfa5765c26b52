import doctest
import json

import rmonoid.algebra
import rmonoid.monoid
from rmonoid import (Transformation, build_semilattice, close, e_system,
                     from_coeffs, verify_system)
from rmonoid.output import (dot_cayley, dot_hasse, element_terms, hasse_edges,
                            render_word, system_payload, to_json)


def test_module_doctests():
    for mod in (rmonoid.monoid, rmonoid.algebra):
        failures, _ = doctest.testmod(mod)
        assert failures == 0


def test_render_word_single_char_names(lrb2):
    assert render_word(lrb2, (0, 1)) == "ab"
    assert render_word(lrb2, ()) == ""


def test_render_word_multi_char_names(hecke3):
    assert render_word(hecke3, (0, 1, 0)) == "T1-T2-T1"


def test_element_terms_sorted_shortlex(lrb2):
    e = from_coeffs(lrb2, {4: -1, 0: 1, 1: 2})
    terms = element_terms(lrb2, e)
    assert terms == [
        {"word": "", "coeff": 1},
        {"word": "a", "coeff": 2},
        {"word": "ba", "coeff": -1},
    ]


def test_system_payload_schema(matrix_monoid):
    lat = build_semilattice(matrix_monoid)
    sys_ = e_system(lat)
    verify_system(lat, sys_)
    payload = system_payload(lat, sys_)
    assert payload["monoid"]["size"] == 5
    assert {g["name"] for g in payload["monoid"]["generators"]} == {"g1", "g2"}
    assert {n["label"] for n in payload["lattice"]} == \
        {"{}", "{g1}", "{g2}", "{g1,g2}"}
    for entry in payload["idempotents"]:
        assert set(entry) == {"node_id", "label", "T_word", "N_B", "N_z",
                              "terms"}
        for t in entry["terms"]:
            assert set(t) == {"word", "coeff"}
    assert payload["verification"]["passed"] is True
    names = {c["name"] for c in payload["verification"]["checks"]}
    assert "orthogonal" in names and "sum_to_one" in names
    # payload is valid, stable JSON
    assert json.loads(to_json(payload)) == payload


def test_hasse_edges_are_covers(lrb2):
    lat = build_semilattice(lrb2)
    edges = set(hasse_edges(lat))
    for a, b in edges:
        assert lat.preceq(a, b) and a != b
        for c in range(lat.n_nodes):
            if c not in (a, b):
                assert not (lat.preceq(a, c) and lat.preceq(c, b))
    # bottom covers exactly the two atoms in the four-element diamond
    assert len(edges) == 4


def test_dot_exports(lrb2):
    lat = build_semilattice(lrb2)
    hasse = dot_hasse(lat)
    assert hasse.startswith("digraph") and hasse.rstrip().endswith("}")
    assert hasse.count("->") == 4
    cay = dot_cayley(lrb2)
    assert 'label="a"' in cay and 'label="b"' in cay


def test_dot_labels_escape_quotes_and_backslashes():
    m = close([Transformation((0, 2, 2)), Transformation((1, 1, 2))],
              names=['a"', "b\\"])
    hasse = dot_hasse(build_semilattice(m))
    assert r'label="{a\"}"' in hasse and r'label="{b\\}"' in hasse
    assert r'label="{a\",b\\}"' in hasse
    cay = dot_cayley(m)
    assert r'[label="a\""];' in cay and r'[label="b\\"];' in cay
    assert r'label="a\"-b\\"' in cay
    # every quote left in a label line is either a delimiter or escaped
    for line in (hasse + cay).splitlines():
        unescaped = line.replace("\\\\", "").replace('\\"', "")
        assert unescaped.count('"') in (0, 2), line
