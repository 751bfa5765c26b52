import dataclasses

import pytest

import oracle
from rmonoid import (Monoid, NotRTrivial, build_free_lrb, build_hecke_a,
                     build_semilattice, verify_weak_order_axioms,
                     weak_preorder)
from rmonoid import order as order_module
from rmonoid import cli as cli_module
from rmonoid import verify
from rmonoid.cli import main

from conftest import random_r_trivial_monoids, subset_nodes


def node_ideal(lat, J):
    """S*e of node J's witness, by search in the left Cayley graph of the
    table, as a sorted tuple; its length must be the node's ideal_size."""
    m = lat.monoid
    nd = lat.nodes[J]
    ideal = tuple(sorted(oracle.left_ideal_by_search(
        m.table(), m.generators, nd.witness)))
    assert len(ideal) == nd.ideal_size
    return ideal


def test_refuses_non_r_trivial(group2):
    with pytest.raises(NotRTrivial) as err:
        build_semilattice(group2)
    assert err.value.witness == (0, 1)


def test_trivial_monoid_single_node(trivial):
    lat = build_semilattice(trivial)
    assert lat.n_nodes == 1
    assert lat.bottom == 0
    assert lat.content(0) == 0
    assert lat.descent(0) == 0


def test_lrb_lattice_shape(lrb2):
    # nodes S, Sa, Sb, Sab = Sba with Sa, Sb incomparable below Sab
    lat = build_semilattice(lrb2)
    assert lat.n_nodes == 4
    ideals = {node_ideal(lat, nd.node_id) for nd in lat.nodes}
    assert ideals == {(0, 1, 2, 3, 4), (1, 3, 4), (2, 3, 4), (3, 4)}
    nodes = subset_nodes(lat)
    bot, na, nb, nab = nodes[()], nodes[(1,)], nodes[(2,)], nodes[(1, 2)]
    assert lat.bottom == bot
    assert lat.preceq(bot, na) and lat.preceq(na, nab)
    assert lat.preceq(bot, nb) and lat.preceq(nb, nab)
    assert not lat.preceq(na, nb) and not lat.preceq(nb, na)
    assert lat.join(na, nb) == nab


def test_matrix_monoid_lattice(matrix_monoid):
    lat = build_semilattice(matrix_monoid)
    assert lat.n_nodes == 4
    nodes = subset_nodes(lat)
    assert set(nodes) == {(), (1,), (2,), (1, 2)}


def test_matrix_monoid_content_values(matrix_monoid):
    # ids: 0=1, 1=g1, 2=g2, 3=g1g2, 4=g2g1
    lat = build_semilattice(matrix_monoid)
    nodes = subset_nodes(lat)
    assert lat.content(0) == nodes[()]
    assert lat.content(1) == nodes[(1,)]
    assert lat.content(2) == nodes[(2,)]
    assert lat.content(3) == nodes[(1, 2)]
    assert lat.content(4) == nodes[(1, 2)]


def test_matrix_monoid_descent_values(matrix_monoid):
    lat = build_semilattice(matrix_monoid)
    nodes = subset_nodes(lat)
    assert lat.descent(0) == nodes[()]
    assert lat.descent(1) == nodes[(1,)]
    assert lat.descent(2) == nodes[(2,)]
    assert lat.descent(3) == nodes[(2,)]
    assert lat.descent(4) == nodes[(1, 2)]


def test_node_invariants(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        for nd in lat.nodes:
            e = nd.witness
            assert m.mult(e, e) == e
            ideal = node_ideal(lat, nd.node_id)
            assert e in ideal
            assert ideal == tuple(sorted({m.mult(s, e)
                                          for s in range(m.size)}))
            # T of the node is idempotent with content exactly the node
            from rmonoid import node_data
            T = node_data(lat, nd.node_id).T
            assert m.mult(T, T) == T
            assert lat.content(T) == nd.node_id


def test_content_of_identity_is_bottom(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        assert lat.content(m.identity) == lat.bottom
        assert lat.descent(m.identity) == lat.bottom


def test_hecke5_lattice_is_subset_lattice(hecke5):
    lat = build_semilattice(hecke5)
    assert lat.n_nodes == 16
    nodes = subset_nodes(lat)
    assert len(nodes) == 16
    subsets = set(nodes)
    for s in subsets:
        for t in subsets:
            union = tuple(sorted(set(s) | set(t)))
            assert lat.join(nodes[s], nodes[t]) == nodes[union]
            assert lat.preceq(nodes[s], nodes[t]) == (set(s) <= set(t))


def test_hecke_content_is_word_letter_set(hecke4):
    m = hecke4
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    for x in range(m.size):
        letters = tuple(sorted({gi + 1 for gi in m.word(x)}))
        assert lat.content(x) == nodes[letters]


def test_hecke_descent_is_right_descent_set(hecke4):
    m = hecke4
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    for x in range(m.size):
        descents = tuple(
            i + 1 for i in range(len(m.generators))
            if m.gen_step(x, i) == x
        )
        assert lat.descent(x) == nodes[descents]


def test_content_both_characterizations(matrix_monoid, lrb2, hecke4):
    # S*x^omega must equal {a : a*x = a}; `verify` checks it, re-check here
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        for x in range(m.size):
            xo = m.idempotent_power(x)
            s_xo = frozenset(m.mult(s, xo) for s in range(m.size))
            fixed = frozenset(a for a in range(m.size) if m.mult(a, x) == a)
            assert s_xo == fixed
            assert node_ideal(lat, lat.content(x)) == tuple(sorted(s_xo))


def _corrupt_top_node(monkeypatch, **fields):
    """Make the suite's semilattice of free_lrb 2 carry `fields` on its top
    node, whose ideal is S*ab = {ab, ba} = (3, 4)."""
    def corrupted(m, order=None):
        lat = build_semilattice(m, order)
        J = next(nd.node_id for nd in lat.nodes
                 if node_ideal(lat, nd.node_id) == (3, 4))
        lat.nodes[J] = dataclasses.replace(lat.nodes[J], **fields)
        return lat
    monkeypatch.setattr(verify, "build_semilattice", corrupted)


def _corrupt_top_ideal(monkeypatch):
    """Give the top node of free_lrb 2 the witness b, so that the suite
    finds S*b = (2, 3, 4) as its ideal."""
    _corrupt_top_node(monkeypatch, witness=2)


def test_content_check_can_fail(lrb2, monkeypatch):
    assert ("PASS  content_characterizations_agree"
            in verify.run_full_suite(lrb2).lines())
    _corrupt_top_ideal(monkeypatch)
    report = verify.run_full_suite(lrb2)
    assert not report.passed
    # element 3 = ab is the first with content at the top node
    assert ("FAIL  content_characterizations_agree  ({a : a*x = a} != "
            "S*x^omega at element 3)") in report.lines()


def test_content_check_failure_makes_verify_exit_1(monkeypatch, capsys):
    _corrupt_top_ideal(monkeypatch)
    assert main(["verify", '{"kind":"free_lrb","k":2}']) == 1
    assert "FAIL  content_characterizations_agree" in capsys.readouterr().out


def test_content_check_catches_a_wrong_ideal_size(lrb2, monkeypatch):
    # the top node's S*ab has 2 elements; the content sets stay right, so
    # only the size comparison can fail, naming the node (a size of 1 keeps
    # the node first in e_system's order, so the rest of the suite runs)
    lat = build_semilattice(lrb2)
    J = next(nd.node_id for nd in lat.nodes
             if node_ideal(lat, nd.node_id) == (3, 4))
    _corrupt_top_node(monkeypatch, ideal_size=1)
    report = verify.run_full_suite(lrb2)
    assert not report.passed
    assert [ln for ln in report.lines() if ln.startswith("FAIL")] == [
        f"FAIL  content_characterizations_agree  (ideal_size != |S*e| "
        f"at node {J})"]


def test_hecke7_semilattice_reads_only_generator_rows():
    # nodes, content, joins and ideal sizes come from the generator steps
    # and word walks: no row of the table is built
    m = build_hecke_a(7)
    assert build_semilattice(m).n_nodes == 64
    forced = [x for x in range(m.size) if m._rows[x] is not None]
    assert forced == []


def test_join_is_least_upper_bound(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        k = lat.n_nodes
        for a in range(k):
            for b in range(k):
                j = lat.join(a, b)
                assert lat.preceq(a, j) and lat.preceq(b, j)
                for c in range(k):
                    if lat.preceq(a, c) and lat.preceq(b, c):
                        assert lat.preceq(j, c)
                # join is the ideal of (ef)^omega for the witnesses
                e, f = lat.nodes[a].witness, lat.nodes[b].witness
                ef = m.idempotent_power(m.mult(e, f))
                assert node_ideal(lat, j) == tuple(sorted(
                    {m.mult(s, ef) for s in range(m.size)}
                ))


def test_join_algebra(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        k = lat.n_nodes
        for a in range(k):
            assert lat.join(a, a) == a
            assert lat.join(a, lat.bottom) == a
            for b in range(k):
                assert lat.join(a, b) == lat.join(b, a)
                for c in range(k):
                    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))


def test_content_morphism(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        for x in range(m.size):
            for y in range(m.size):
                assert lat.content(m.mult(x, y)) == \
                    lat.join(lat.content(x), lat.content(y))


def test_content_surjective_on_witnesses(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        for nd in lat.nodes:
            assert lat.content(nd.witness) == nd.node_id


def test_weak_order_axiom_reports(matrix_monoid, lrb2, trivial, hecke4):
    for m in (matrix_monoid, lrb2, trivial, hecke4):
        lat = build_semilattice(m)
        report = verify_weak_order_axioms(lat)
        assert report.passed, report.lines()


def test_descent_witness_is_idempotent_and_stable(matrix_monoid, lrb2, hecke4):
    # axioms 3/4 reformulated: stabilizer of u = {s : C(s) preceq D(u)}
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        for u in range(m.size):
            du = lat.descent(u)
            for s in range(m.size):
                assert (m.mult(u, s) == u) == lat.preceq(lat.content(s), du)


def test_order_is_shared(matrix_monoid):
    order = weak_preorder(matrix_monoid)
    lat = build_semilattice(matrix_monoid, order)
    assert lat.order is order


def assert_semilattice_matches_oracle(m):
    """Node ids, witnesses, preceq, joins, ideal sizes, content, descent
    and chain length equal their definitions in the oracle."""
    ref = oracle.semilattice(m.table(), m.identity, m.generators)
    lat = build_semilattice(m)
    k, n = lat.n_nodes, m.size
    assert [nd.node_id for nd in lat.nodes] == list(range(k))
    assert [nd.witness for nd in lat.nodes] == ref["witnesses"]
    assert [nd.ideal_size for nd in lat.nodes] == [len(s) for s in ref["ideals"]]
    assert [[lat.preceq(a, b) for b in range(k)]
            for a in range(k)] == ref["preceq"]
    assert [[lat.join(a, b) for b in range(k)] for a in range(k)] == ref["join"]
    assert [lat.content(x) for x in range(n)] == ref["content"]
    assert [lat.descent(u) for u in range(n)] == ref["descent"]
    assert lat.bottom == ref["content"][m.identity]
    assert lat.order.chain_length == ref["chain_length"]


@pytest.mark.parametrize("build, size", [
    *((build_hecke_a, n) for n in range(2, 7)),
    *((build_free_lrb, k) for k in range(1, 6)),
], ids=[*(f"hecke_a{n}" for n in range(2, 7)),
        *(f"free_lrb{k}" for k in range(1, 6))])
def test_semilattice_matches_oracle_on_families(build, size):
    assert_semilattice_matches_oracle(build(size))


def test_semilattice_matches_oracle_on_random_monoids(matrix_monoid):
    assert_semilattice_matches_oracle(matrix_monoid)
    monoids = random_r_trivial_monoids(120, seed=1909)
    for m in monoids:
        assert_semilattice_matches_oracle(m)
    # some lattice must have a join whose label holds more generators than
    # its two sides together, so that labels alone cannot give the joins
    assert any(
        len(lat.generator_label(lat.join(a, b)))
        > len(set(lat.generator_label(a)) | set(lat.generator_label(b)))
        for lat in map(build_semilattice, monoids)
        for a in range(lat.n_nodes) for b in range(lat.n_nodes))


def test_lattice_forces_no_row_and_builds_no_upset(monkeypatch, capsys):
    # hecke_a 6: `lattice` reads only generator steps and word walks, and
    # neither `lattice` nor `idempotents` reads the order's upset masks
    rows, upsets = [], []
    row, build_upsets = Monoid.row, order_module._upsets
    monkeypatch.setattr(Monoid, "row",
                        lambda m, x: rows.append(x) or row(m, x))
    monkeypatch.setattr(order_module, "_upsets",
                        lambda *a: upsets.append(1) or build_upsets(*a))
    assert main(["lattice", '{"kind":"hecke_a","n":6}']) == 0
    assert rows == [] and upsets == []
    assert main(["idempotents", '{"kind":"hecke_a","n":6}']) == 0
    assert rows and upsets == []
    capsys.readouterr()
    # the counters do see a verification that reads both
    assert main(["verify", '{"kind":"hecke_a","n":3}']) == 0
    assert upsets == [1]


def _doctor_suite_lattice(monkeypatch, doctor):
    """Have `analyze` and `verify` build their semilattice, then pass it
    through `doctor` before the axiom checks read it."""
    def doctored(m, order=None):
        lat = build_semilattice(m, order)
        doctor(lat)
        return lat
    monkeypatch.setattr(verify, "build_semilattice", doctored)
    monkeypatch.setattr(cli_module, "build_semilattice", doctored)


def _disagreeing_maxima(lat):
    # free_lrb 2: ab and ba are the maximal elements of ab's stabilizer;
    # give ba the content of a
    lat._content[4] = lat._content[1]


def _non_idempotent_maximum(lat):
    # matrix monoid: g1g2 (3) is not idempotent and lies below g2g1 (4);
    # swap their order so that g1g2 is the only maximal element of the
    # stabilizer of g2g1, which is the whole monoid
    up = list(lat.order.up)
    up[3] &= ~(1 << 4)
    up[4] |= 1 << 3
    lat.order.up = up


def _descent_mismatch(lat):
    lat.descent = lambda u: lat.bottom


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("spec, doctor, message", [
    ('{"kind":"free_lrb","k":2}', _disagreeing_maxima,
     "descent of element 3 ill-defined: maximal stabilizer elements have "
     "contents [1, 3]"),
    ('{"kind":"transformations","degree":3,"generators":[[0,2,2],[1,1,2]]}',
     _non_idempotent_maximum,
     "maximal stabilizer element 3 of 4 is not idempotent"),
    ('{"kind":"free_lrb","k":2}', _descent_mismatch,
     "descent of element 1: generator steps give node 0, a maximal "
     "stabilizer element node 1"),
], ids=["contents-disagree", "not-idempotent", "generator-steps-disagree"])
def test_descent_faults_exit_1_from_analyze_and_verify(
        monkeypatch, capsys, command, spec, doctor, message):
    _doctor_suite_lattice(monkeypatch, doctor)
    assert main([command, spec]) == 1
    assert capsys.readouterr().err == f"verification failure: {message}\n"
