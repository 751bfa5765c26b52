import json

import pytest

from rmonoid.cli import main

LRB2 = '{"kind":"free_lrb","k":2,"names":["a","b"]}'
MATRIX = ('{"kind":"transformations","degree":3,'
          '"generators":[[0,2,2],[1,1,2]],"names":["g1","g2"]}')
GROUP2 = '{"kind":"table","table":[[0,1],[1,0]],"identity":0,"generators":[1]}'


def test_analyze_lrb(capsys):
    assert main(["analyze", LRB2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["monoid"]["size"] == 5
    assert payload["r_trivial"] is True
    assert payload["j_trivial"] is False
    assert payload["chain_length"] == 3
    assert payload["lattice_size"] == 4
    assert payload["weak_order_axioms"]["passed"] is True


def test_analyze_group_exits_2_with_witness(capsys):
    assert main(["analyze", GROUP2]) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["r_trivial"] is False
    assert payload["witness"]["elements"] == [0, 1]
    assert "not R-trivial" in captured.err


def test_idempotents_lrb_matches_expected(capsys):
    assert main(["idempotents", LRB2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["idempotents"]) == 4
    by_label = {e["label"]: e for e in payload["idempotents"]}
    terms = {t["word"]: t["coeff"] for t in by_label["{a,b}"]["terms"]}
    assert terms == {"ab": 1}
    terms = {t["word"]: t["coeff"] for t in by_label["{}"]["terms"]}
    assert terms == {"": 1, "a": -1, "b": -1, "ba": 1}
    assert payload["verification"]["passed"] is True


def test_idempotents_group_exits_2(capsys):
    assert main(["idempotents", GROUP2]) == 2
    assert "not R-trivial" in capsys.readouterr().err


def test_idempotents_text_format(capsys):
    assert main(["idempotents", MATRIX, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "e{g1,g2}" in out
    assert "PASS" in out


def test_idempotents_modes_agree(capsys):
    assert main(["idempotents", MATRIX, "--mode", "general"]) == 0
    general = capsys.readouterr().out
    assert main(["idempotents", MATRIX, "--mode", "jtrivial"]) == 0
    jtrivial = capsys.readouterr().out
    g, j = json.loads(general), json.loads(jtrivial)
    assert g["idempotents"] == j["idempotents"]


def test_jtrivial_mode_on_non_jtrivial_monoid_exits_1(capsys):
    # the free LRB is R-trivial but not J-trivial; the short formula's
    # vanishing search cannot terminate, which surfaces as exit 1
    assert main(["idempotents", LRB2, "--mode", "jtrivial"]) == 1
    assert "verification failure" in capsys.readouterr().err


def test_verify_hecke5(capsys):
    assert main(["verify", '{"kind":"hecke_a","n":5}']) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_idempotents_byte_reproducible(capsys):
    assert main(["idempotents", LRB2]) == 0
    first = capsys.readouterr().out
    assert main(["idempotents", LRB2]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_lattice_output_and_dot(tmp_path, capsys):
    dot = tmp_path / "hasse.dot"
    cayley = tmp_path / "cayley.dot"
    assert main(["lattice", MATRIX, "--dot", str(dot),
                 "--cayley", str(cayley)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["nodes"]) == 4
    assert sorted(payload["hasse_edges"]) == [[0, 1], [0, 2], [1, 3], [2, 3]]
    hasse = dot.read_text()
    assert hasse.startswith("digraph") and "{g1}" in hasse
    cay = cayley.read_text()
    assert cay.startswith("digraph") and 'label="g1"' in cay and "->" in cay


def test_verify_passes(capsys):
    assert main(["verify", LRB2]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS  orthogonal" in out


def test_verify_group_exits_2(capsys):
    assert main(["verify", GROUP2]) == 2


def test_parse_error_exit_3(capsys):
    assert main(["analyze", '{"kind":"???"}']) == 3
    assert "input error" in capsys.readouterr().err
    assert main(["analyze", "not-a-file-and-not-json"]) == 3


def test_cap_exceeded_exit_4(capsys):
    assert main(["analyze", '{"kind":"hecke_a","n":5,"cap":10}']) == 4
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ['{"kind":"hecke_a","n":1700}',
                                  '{"kind":"free_lrb","k":1700}'])
def test_huge_family_exit_4(capsys, spec):
    # the size bound stops at the first partial count past the cap
    assert main(["analyze", spec]) == 4
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_spec_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(LRB2)
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["monoid"]["size"] == 5


def test_table_cap_exceeded_exit_4(capsys):
    spec = '{"kind":"table","table":[[0,1],[1,1]],"cap":1}'
    assert main(["analyze", spec]) == 4
    # no closure runs for a table and its row count is exact
    assert capsys.readouterr().err == (
        "cap exceeded: element cap of 1 exceeded: at least 2 elements\n")
    assert main(["analyze", spec.replace('"cap":1', '"cap":2')]) == 0


def test_duplicate_generator_names_exit_3(capsys):
    spec = '{"kind":"free_lrb","k":2,"names":["a","a"]}'
    assert main(["idempotents", spec]) == 3
    assert "input error: names:" in capsys.readouterr().err


def test_spec_path_is_directory_exit_3(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_spec_file_not_utf8_exit_3(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"kind":"free_lrb","k":2,"names":["\xff","b"]}')
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--dot", "--cayley"])
def test_unwritable_output_path_exit_3(tmp_path, capsys, flag):
    target = tmp_path / "no-such-dir" / "out.dot"
    assert main(["lattice", MATRIX, flag, str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_internal_error_exit_5(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr("rmonoid.cli.build_semilattice", broken)
    assert main(["lattice", LRB2]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in captured.err
