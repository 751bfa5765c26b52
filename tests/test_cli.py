import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from rmonoid import build_free_lrb
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


HUGE = "9" * 5000           # past the int-from-text digit limit of json


@pytest.mark.parametrize("spec", [
    '{"kind":"hecke_a","n":%s}' % HUGE,
    '{"kind":"hecke_a","n":3,"cap":%s}' % HUGE,
    '{"kind":"table","table":[[0,%s],[1,1]]}' % HUGE,
], ids=["n", "cap", "table"])
def test_huge_integer_literal_exit_3(capsys, spec):
    assert main(["analyze", spec]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: json:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deeply_nested_spec_exit_3(capsys):
    depth = 100_000
    spec = '{"kind":"hecke_a","n":' + "[" * depth + "]" * depth + "}"
    assert main(["analyze", spec]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: json:") and err.count("\n") == 1
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


@pytest.mark.parametrize("spec", [
    '{"kind":"table","table":[[0,1],[1,0]],"names":[]}',
    '{"kind":"free_lrb","k":2,"names":[]}',
    '{"kind":"hecke_a","n":3,"names":[]}',
    '{"kind":"transformations","degree":2,"generators":[[0,0]],"names":[]}',
], ids=["table", "free_lrb", "hecke_a", "transformations"])
def test_empty_names_exit_3(capsys, spec):
    # an empty list is a list of names, one short per generator
    assert main(["analyze", spec]) == 3
    assert capsys.readouterr().err == (
        "input error: names: one name per generator required\n")


def test_non_associative_table_over_256_elements_exit_3(capsys):
    # the free LRB on 5 letters has 326 elements; setting ab to ba breaks
    # associativity, which is checked at every size
    table = build_free_lrb(5).table()
    table[1][2] = table[2][1]
    assert main(["analyze", json.dumps({"kind": "table", "table": table})]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: table: associativity fails at triple (")
    assert err.count("\n") == 1
    x, y, z = map(int, err[err.index("(") + 1:err.index(")")].split(", "))
    assert table[table[x][y]][z] != table[x][table[y][z]]


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


def test_python_m_rmonoid_runs_the_cli():
    # a checkout without an install runs the CLI as `python -m rmonoid`
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(spec):
        return subprocess.run(
            [sys.executable, "-m", "rmonoid", "verify", spec],
            capture_output=True, text=True, env=env, timeout=60)

    ok = run('{"kind":"hecke_a","n":3}')
    assert ok.returncode == 0 and ok.stderr == ""
    lines = ok.stdout.splitlines()
    assert lines and all(line.startswith("PASS  ") for line in lines)

    bad = run('{"kind":"hecke_a"}')
    assert bad.returncode == 3 and bad.stdout == ""
    assert len(bad.stderr.splitlines()) == 1
    assert bad.stderr.startswith("input error: ")


@pytest.mark.parametrize("table_spec, message", [
    ('', "table: missing required field"),
    ('"table":5', "table: expected list, got int"),
    ('"table":[]', "table: empty table"),
    ('"table":[[0,1],5]', "table: row 1 must be 2 ids in [0, 2)"),
    ('"table":[[0,1],[1]]', "table: row 1 must be 2 ids in [0, 2)"),
    ('"table":[[0,1],[1,2]]', "table: row 1 must be 2 ids in [0, 2)"),
    ('"table":[[0,1],[1,-1]]', "table: row 1 must be 2 ids in [0, 2)"),
    ('"table":[[0,true],[1,0]]', "table: row 0 must be 2 ids in [0, 2)"),
    ('"table":[[0,1.0],[1,0]]', "table: row 0 must be 2 ids in [0, 2)"),
    ('"table":[[0,"1"],[1,0]]', "table: row 0 must be 2 ids in [0, 2)"),
    ('"table":[[0,1],[1,0]],"identity":2', "identity: must be an id in [0, 2)"),
    ('"table":[[0,1],[1,0]],"identity":true',
     "identity: must be an id in [0, 2)"),
    ('"table":[[0,1],[1,0]],"generators":[2]',
     "generators: must be ids in [0, 2)"),
    ('"table":[[0,1],[1,0]],"generators":[false]',
     "generators: must be ids in [0, 2)"),
    ('"table":[[0,1],[1,0]],"generators":1',
     "generators: must be ids in [0, 2)"),
    ('"table":[[0,1],[1,1]],"identity":1',
     "identity: identity axiom fails at element 0"),
    ('"table":[[0,1],[1,0]],"names":["a","b"]',
     "names: one name per generator required"),
    ('"table":[[0,1,2],[1,1,1],[2,2,2]],"generators":[1]',
     "generators: generators only reach 2 of 3 elements"),
    ('"table":[[0,1,2],[1,0,0],[2,0,0]]',
     "table: associativity fails at triple (1, 1, 2)"),
])
def test_table_spec_errors_exit_3_with_one_line(capsys, table_spec, message):
    # entries and ids are checked once, by parse_spec; the identity axiom,
    # generation and associativity when the monoid is built
    spec = '{"kind":"table"%s}' % ("," + table_spec if table_spec else "")
    assert main(["lattice", spec]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    # building a parser asks the help formatter for the terminal size at
    # every add_argument, so main builds it once per process
    import argparse
    import types
    from rmonoid import cli
    fresh = cli.build_parser.__wrapped__()
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)
    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "argparse",
                        types.SimpleNamespace(ArgumentParser=Counting))
    try:
        assert main(["verify", LRB2]) == 0
        n_built = len(built)
        assert main(["verify", LRB2]) == 0
        assert len(built) == n_built and built[0] == "rmonoid"
        # help and usage errors read as from a parser built afresh
        for argv, code in ((["--help"], 0), (["idempotents", "--help"], 0),
                           ([], 2), (["idempotents", LRB2, "--mode", "x"], 2)):
            capsys.readouterr()
            with pytest.raises(SystemExit) as got:
                main(argv)
            out = capsys.readouterr()
            with pytest.raises(SystemExit) as want:
                fresh.parse_args(argv)
            assert (got.value.code, out) == (want.value.code,
                                             capsys.readouterr())
            assert got.value.code == code
        assert len(built) == n_built
    finally:
        cli.build_parser.cache_clear()


# Byte-identity gate: (exit code, SHA-256 of stdout, SHA-256 of stderr),
# the first 16 hex digits of each, for every command, format and mode.
# Recorded before `idempotents` streamed its document; a change that moves
# one byte of any of these outputs changes behaviour, not just speed.
GATE_SPECS = {"hecke_a 4": '{"kind":"hecke_a","n":4}',
              "free_lrb 3": '{"kind":"free_lrb","k":3}', "matrix": MATRIX}
EMPTY = "e3b0c44298fc1c14"  # no output
GATE_DIGESTS = {
    ("hecke_a 4", "analyze"): (0, "1a68912cf675b25e", EMPTY),
    ("hecke_a 4", "lattice"): (0, "c577671991bcfa7c", EMPTY),
    ("hecke_a 4", "verify"): (0, "e1750deedd384ff7", EMPTY),
    ("hecke_a 4", "idempotents --format json --mode general"):
        (0, "aa4ef6928b5e2643", EMPTY),
    ("hecke_a 4", "idempotents --format json --mode jtrivial"):
        (0, "cd91e0e79ef1422a", EMPTY),
    ("hecke_a 4", "idempotents --format json --mode auto"):
        (0, "cd91e0e79ef1422a", EMPTY),
    ("hecke_a 4", "idempotents --format text --mode general"):
        (0, "81405fe2e9130a5b", EMPTY),
    ("hecke_a 4", "idempotents --format text --mode jtrivial"):
        (0, "81405fe2e9130a5b", EMPTY),
    ("hecke_a 4", "idempotents --format text --mode auto"):
        (0, "81405fe2e9130a5b", EMPTY),
    ("free_lrb 3", "analyze"): (0, "0dfecdc43f77f3e2", EMPTY),
    ("free_lrb 3", "lattice"): (0, "a0a67c3c4a430c14", EMPTY),
    ("free_lrb 3", "verify"): (0, "3facd5b6da8ef31e", EMPTY),
    ("free_lrb 3", "idempotents --format json --mode general"):
        (0, "688eae4d2d4d9cf1", EMPTY),
    ("free_lrb 3", "idempotents --format json --mode jtrivial"):
        (1, EMPTY, "6a57bcaed927ed2d"),
    ("free_lrb 3", "idempotents --format json --mode auto"):
        (0, "688eae4d2d4d9cf1", EMPTY),
    ("free_lrb 3", "idempotents --format text --mode general"):
        (0, "740d3b52d5423e0c", EMPTY),
    ("free_lrb 3", "idempotents --format text --mode jtrivial"):
        (1, EMPTY, "6a57bcaed927ed2d"),
    ("free_lrb 3", "idempotents --format text --mode auto"):
        (0, "740d3b52d5423e0c", EMPTY),
    ("matrix", "analyze"): (0, "535bc33c4cb5d09d", EMPTY),
    ("matrix", "lattice"): (0, "22473b7c7d996c01", EMPTY),
    ("matrix", "verify"): (0, "e1750deedd384ff7", EMPTY),
    ("matrix", "idempotents --format json --mode general"):
        (0, "6f06761de72e848c", EMPTY),
    ("matrix", "idempotents --format json --mode jtrivial"):
        (0, "53fe3f6736746648", EMPTY),
    ("matrix", "idempotents --format json --mode auto"):
        (0, "53fe3f6736746648", EMPTY),
    ("matrix", "idempotents --format text --mode general"):
        (0, "0d0be1b4e511f561", EMPTY),
    ("matrix", "idempotents --format text --mode jtrivial"):
        (0, "0d0be1b4e511f561", EMPTY),
    ("matrix", "idempotents --format text --mode auto"):
        (0, "0d0be1b4e511f561", EMPTY),
}


def test_outputs_byte_identical_to_recorded_digests(capsys):
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]
    got = {}
    for name, args in GATE_DIGESTS:
        argv = args.split()
        rc = main([argv[0], GATE_SPECS[name], *argv[1:]])
        out = capsys.readouterr()
        got[name, args] = (rc, digest(out.out), digest(out.err))
    assert got == GATE_DIGESTS
