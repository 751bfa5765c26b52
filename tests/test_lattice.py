import dataclasses

import pytest

from rmonoid import (NotRTrivial, build_hecke_a, build_semilattice,
                     verify_weak_order_axioms, weak_preorder)
from rmonoid import verify
from rmonoid.cli import main

from conftest import subset_nodes


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
    ideals = {nd.ideal for nd in lat.nodes}
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
            assert e in nd.ideal
            assert nd.ideal == tuple(sorted({m.mult(s, e)
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
            assert lat.nodes[lat.content(x)].ideal == tuple(sorted(s_xo))


def _corrupt_top_ideal(monkeypatch):
    """Make the suite's semilattice of free_lrb 2 list (2, 4) as the ideal
    S*ab = {ab, ba} of its top node."""
    def corrupted(m, order=None):
        lat = build_semilattice(m, order)
        J = next(nd.node_id for nd in lat.nodes if nd.ideal == (3, 4))
        lat.nodes[J] = dataclasses.replace(lat.nodes[J], ideal=(2, 4))
        return lat
    monkeypatch.setattr(verify, "build_semilattice", corrupted)


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


def test_hecke7_semilattice_reads_only_generator_rows():
    # products are word walks and S*e comes from the left Cayley graph,
    # whose edges are the k generator rows
    m = build_hecke_a(7)
    assert build_semilattice(m).n_nodes == 64
    forced = [x for x in range(m.size) if m._rows[x] is not None]
    assert forced == sorted(m.generators)


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
                assert lat.nodes[j].ideal == tuple(sorted(
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
