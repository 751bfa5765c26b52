import dataclasses
import doctest
import io
import json

import pytest

import rmonoid.algebra
import rmonoid.monoid
from rmonoid import (Transformation, build_free_lrb, build_hecke_a,
                     build_semilattice, close, e_system, from_coeffs,
                     from_table, is_j_trivial, verify_system, zero)
from rmonoid.cli import main
from rmonoid.norton import IdempotentSystem
from rmonoid.output import (dot_cayley, dot_hasse, element_terms, hasse_edges,
                            render_word, system_payload, to_json,
                            write_system)

from conftest import permuted_table, random_r_trivial_monoids
from oracle import joined_idempotents


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


def _streamed(lat, system, fmt):
    out = io.StringIO()
    write_system(out, lat, system, fmt)
    return out.getvalue()


def _assert_streamed_matches_joined(m, modes=("general", "auto")):
    lat = build_semilattice(m)
    for mode in modes:
        system = e_system(lat, mode)
        verify_system(lat, system)
        for fmt in ("json", "text"):
            assert _streamed(lat, system, fmt) == \
                joined_idempotents(lat, system, fmt)


@pytest.mark.parametrize("build, n", [
    *((build_hecke_a, n) for n in range(2, 7)),
    *((build_free_lrb, k) for k in range(1, 6)),
], ids=[*(f"hecke_a{n}" for n in range(2, 7)),
        *(f"free_lrb{k}" for k in range(1, 6))])
def test_streamed_idempotents_match_joined_on_families(build, n):
    _assert_streamed_matches_joined(build(n))


def test_streamed_idempotents_match_joined_on_small_monoids(matrix_monoid):
    monoids = [matrix_monoid] + random_r_trivial_monoids(30, seed=2301)
    # both modes: auto takes the short formula on the J-trivial ones
    assert 0 < sum(map(is_j_trivial, monoids)) < len(monoids)
    for m in monoids:
        _assert_streamed_matches_joined(m)


@pytest.mark.parametrize("names", [
    ["\u00e9", "\u0436"], ['a"', "b\\"], ["x1", "\u00fc\\\"2"], ["", "ab"]],
    ids=["non-ascii", "quote-backslash", "multi-char", "empty"])
def test_streamed_idempotents_match_joined_on_awkward_names(names):
    m = close([Transformation((0, 2, 2)), Transformation((1, 1, 2))],
              names=names)
    _assert_streamed_matches_joined(m)
    _assert_streamed_matches_joined(build_free_lrb(2, names=names))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_streams_permuted_table_as_joined(capsys, fmt):
    # ids are the table's rows, the identity is not 0, and the generators
    # are given: terms must still come in shortlex order of their words
    table, identity, gens = permuted_table(build_free_lrb(3), 7)
    names = ["p", "q", "r"]
    spec = json.dumps({"kind": "table", "table": table, "identity": identity,
                       "generators": gens, "names": names})
    assert main(["idempotents", spec, "--format", fmt]) == 0
    tm = from_table(table, identity=identity, generators=gens, names=names)
    lat = build_semilattice(tm)
    system = e_system(lat)
    verify_system(lat, system)
    assert capsys.readouterr().out == joined_idempotents(lat, system, fmt)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_streams_zero_e_as_joined(monkeypatch, capsys, lrb2, fmt):
    # a zero e_J is written as "terms": [] and fails verification
    systems = []

    def doctored(lat, mode="auto"):
        system = e_system(lat, mode)
        system.data[1] = dataclasses.replace(system.data[1], e=zero(lat.monoid))
        systems.append((lat, system))
        return system
    monkeypatch.setattr("rmonoid.cli.e_system", doctored)
    assert main(["idempotents", '{"kind":"free_lrb","k":2,"names":["a","b"]}',
                 "--format", fmt]) == 1
    out = capsys.readouterr().out
    (lat, system), = systems
    assert out == joined_idempotents(lat, system, fmt)
    assert ('"terms": []' in out) == (fmt == "json")
    assert "FAIL  nonzero_with_unit_leading_term" in joined_idempotents(
        lat, system, "text")


def test_streamed_idempotents_without_verification(lrb2):
    lat = build_semilattice(lrb2)
    system = e_system(lat)
    assert system.verification is None
    for fmt in ("json", "text"):
        assert _streamed(lat, system, fmt) == joined_idempotents(lat, system,
                                                                 fmt)
    assert "verification" not in json.loads(_streamed(lat, system, "json"))
    empty = IdempotentSystem([], system.mode_used)
    assert _streamed(lat, empty, "json") == joined_idempotents(lat, empty,
                                                               "json")
