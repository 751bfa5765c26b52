import itertools
from collections import Counter

from rmonoid import (basis, build_semilattice, e_system, from_coeffs,
                     node_data, one, verify_system, weak_preorder)
from rmonoid.output import system_payload, to_json
from rmonoid.verify import _p_by_summation

from conftest import hecke_elt, subset_nodes
from oracle import naive_system


def test_t_element_lrb(lrb2):
    lat = build_semilattice(lrb2)
    nodes = subset_nodes(lat)
    assert node_data(lat, nodes[()]).T == lrb2.identity
    assert node_data(lat, nodes[(1,)]).T == 1        # a
    assert node_data(lat, nodes[(2,)]).T == 2        # b
    assert node_data(lat, nodes[(1, 2)]).T == 3      # (ab)^omega = ab


def test_t_element_hecke5(hecke5):
    m = hecke5
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    assert node_data(lat, nodes[(1, 2, 3, 4)]).T == hecke_elt(m, "1234123121")
    assert node_data(lat, nodes[(1, 2, 4)]).T == hecke_elt(m, "1214")
    assert node_data(lat, nodes[(1, 2)]).T == hecke_elt(m, "121")
    assert node_data(lat, nodes[()]).T == m.identity


def test_b_element_lrb(lrb2):
    m = lrb2
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    a, b = basis(m, 1), basis(m, 2)
    assert node_data(lat, nodes[()]).B == (1 - a) * (1 - b)
    assert node_data(lat, nodes[(1,)]).B == 1 - b
    assert node_data(lat, nodes[(1, 2)]).B == one(m)   # empty product


def test_b_element_hecke5(hecke5):
    m = hecke5
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    t3, t4 = basis(m, m.generators[2]), basis(m, m.generators[3])
    assert node_data(lat, nodes[(1, 2)]).B == (1 - t3) * (1 - t4)
    assert node_data(lat, nodes[(1, 2, 3, 4)]).B == one(m)


def test_a_element_values(lrb2, hecke5):
    m = lrb2
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    a, b = basis(m, 1), basis(m, 2)
    rec = node_data(lat, nodes[()])
    assert rec.A == 1 - a - b + a * b and rec.N_B == 1   # B already idempotent
    rec = node_data(lat, nodes[(1,)])
    assert rec.A == 1 - b and rec.N_B == 1
    rec = node_data(lat, nodes[(1, 2)])
    assert rec.A == one(m) and rec.N_B == 1

    h = hecke5
    lath = build_semilattice(h)
    nh = subset_nodes(lath)
    t3, t4 = basis(h, h.generators[2]), basis(h, h.generators[3])
    assert node_data(lath, nh[(1, 2)]).A == (1 - t3) * (1 - t4) * (1 - t3)


def test_z_element_values(lrb2, hecke5):
    m = lrb2
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    assert node_data(lat, nodes[(1,)]).z == basis(m, 1) - basis(m, 4)  # a - ba
    h = hecke5
    lath = build_semilattice(h)
    nh = subset_nodes(lath)
    top = nh[(1, 2, 3, 4)]
    assert node_data(lath, top).z == basis(h, hecke_elt(h, "1234123121"))


def test_z_leading_coefficient(lrb2, matrix_monoid, hecke4):
    for m in (lrb2, matrix_monoid, hecke4):
        lat = build_semilattice(m)
        for nd in lat.nodes:
            J = nd.node_id
            rec = node_data(lat, J)
            T, z = rec.T, rec.z
            assert z.coefficient(T) == 1
            for y in z.coeffs:
                if y != T:
                    assert lat.preceq(J, lat.content(y))
                    assert lat.content(y) != J


def test_p_element_lrb(lrb2):
    m = lrb2
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    a, b = basis(m, 1), basis(m, 2)
    rec = node_data(lat, nodes[(1,)], mode="general")
    assert rec.P == basis(m, 1) - basis(m, 3)            # z^2 = a - ab
    assert rec.P == _p_by_summation(rec.z, rec.N_z)
    rec = node_data(lat, nodes[()], mode="general")
    assert rec.P == 1 - a - b + a * b
    assert rec.P == _p_by_summation(rec.z, rec.N_z)
    # z idempotent at the top: P = z in both modes
    z_top = basis(m, 3)
    for mode in ("general", "jtrivial"):
        assert node_data(lat, nodes[(1, 2)], mode=mode).P == z_top


def test_p_idempotent_everywhere(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        for nd in lat.nodes:
            rec = node_data(lat, nd.node_id, mode="general")
            assert rec.P * rec.P == rec.P
            assert rec.P == _p_by_summation(rec.z, rec.N_z)


def test_vanishing_exponent_bounded(matrix_monoid, lrb2, hecke4, hecke5):
    for m in (matrix_monoid, lrb2, hecke4, hecke5):
        order = weak_preorder(m)
        lat = build_semilattice(m, order)
        for nd in lat.nodes:
            rec = node_data(lat, nd.node_id, mode="general")
            z, n_z = rec.z, rec.N_z
            assert n_z <= order.chain_length + 1
            # explicit vanishing re-check
            w = one(m) - z
            acc = z * z
            for _ in range(n_z):
                acc = w * acc
            assert acc.is_zero()


def test_geometric_series_identity(lrb2, matrix_monoid):
    for m in (lrb2, matrix_monoid):
        lat = build_semilattice(m)
        for nd in lat.nodes:
            z = node_data(lat, nd.node_id).z
            w = one(m) - z
            for N in range(5):
                geom = sum((w ** n for n in range(N + 1)), one(m) * 0)
                assert z * geom == one(m) - w ** (N + 1)


def test_e_system_lrb_values(lrb2):
    m = lrb2
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    sys_ = e_system(lat, mode="general")
    expect = {
        (): {0: 1, 1: -1, 2: -1, 4: 1},          # 1 - a - b + ba
        (1,): {1: 1, 3: -1},                     # a - ab
        (2,): {2: 1, 4: -1},                     # b - ba
        (1, 2): {3: 1},                          # ab
    }
    for subset, coeffs in expect.items():
        assert sys_.data[nodes[subset]].e == from_coeffs(m, coeffs)


def test_e_system_matrix_monoid_values(matrix_monoid):
    m = matrix_monoid
    lat = build_semilattice(m)
    nodes = subset_nodes(lat)
    sys_ = e_system(lat, mode="general")
    expect = {
        (): {0: 1, 1: -1, 2: -1, 3: 1},          # 1 - g1 - g2 + g1g2
        (1,): {1: 1, 4: -1},                     # g1 - g2g1
        (2,): {2: 1, 3: -1},                     # g2 - g1g2
        (1, 2): {4: 1},                          # g2g1
    }
    for subset, coeffs in expect.items():
        assert sys_.data[nodes[subset]].e == from_coeffs(m, coeffs)


def test_e_system_matches_naive_oracle(matrix_monoid, lrb2, hecke3, hecke4):
    for m in (matrix_monoid, lrb2, hecke3, hecke4):
        lat = build_semilattice(m)
        oracle = naive_system(m.table(), m.identity, list(m.generators))
        for mode in ("general", "auto"):
            sys_ = e_system(lat, mode=mode)
            for nd in lat.nodes:
                want = oracle[frozenset(nd.ideal)]
                got = sys_.data[nd.node_id].e
                assert got == from_coeffs(m, dict(enumerate(want)))


P61 = (1 << 61) - 1


def _rank_mod_p(vectors):
    """Rank over GF(2^61 - 1) of sparse vectors {column: integer}."""
    pivots = {}                 # column -> row, 1 at that column, reduced
    for v in vectors:
        v = {c: a % P61 for c, a in v.items() if a % P61}
        while v:
            col = min(v)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(v[col], -1, P61)
                pivots[col] = {c: a * inv % P61 for c, a in v.items()}
                break
            f = v[col]
            for c, a in piv.items():
                r = (v.get(c, 0) - f * a) % P61
                if r:
                    v[c] = r
                else:
                    v.pop(c, None)
    return len(pivots)


def test_norton_dimensions_hecke(hecke3, hecke4, hecke5):
    # Norton (0-Hecke algebras, 1979): dim QM*e_J is the number of
    # permutations with descent set J. rank_p <= rank_Q, and the Q-ranks
    # sum to n! since QM is the direct sum of the QM*e_J, so ranks mod p
    # summing to n! are all exact. A descent set and its complement have
    # equally many permutations, so this does not pin the orientation.
    for n, m in ((3, hecke3), (4, hecke4), (5, hecke5)):
        table = m.table()
        lat = build_semilattice(m)
        sys_ = e_system(lat, mode="auto")
        descents = Counter(
            tuple(i for i in range(n - 1) if perm[i] > perm[i + 1])
            for perm in itertools.permutations(range(n)))
        total = 0
        for nd in sys_.data:
            vectors = []
            for x in range(m.size):
                v = {}
                for y, c in nd.e.coeffs.items():
                    xy = table[x][y]
                    v[xy] = v.get(xy, 0) + c
                vectors.append(v)
            rank = _rank_mod_p(vectors)
            assert rank == descents[lat.generator_label(nd.node_id)]
            total += rank
        assert total == m.size


def test_full_verification_reports(matrix_monoid, lrb2, trivial, hecke4):
    for m in (matrix_monoid, lrb2, trivial, hecke4):
        lat = build_semilattice(m)
        sys_ = e_system(lat, mode="auto")
        report = verify_system(lat, sys_)
        assert report.passed, report.lines()
        assert sys_.verification is report


def test_trivial_monoid_system(trivial):
    lat = build_semilattice(trivial)
    sys_ = e_system(lat)
    assert len(sys_.data) == 1
    assert sys_.data[0].e == one(trivial)
    assert verify_system(lat, sys_).passed


def test_t_absorbs_low_content(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        for nd in lat.nodes:
            J = nd.node_id
            T = node_data(lat, J).T
            for x in range(m.size):
                if lat.preceq(lat.content(x), J):
                    assert m.mult(T, x) == T


def test_high_content_generators_kill_A_and_BN(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        for nd in lat.nodes:
            J = nd.node_id
            rec = node_data(lat, J)
            B, A, n_b = rec.B, rec.A, rec.N_B
            BN = one(m)
            for _ in range(n_b):
                BN = BN * B
            assert BN == A
            for g in m.generators:
                if not lat.preceq(lat.content(g), J):
                    go = basis(m, m.idempotent_power(g))
                    assert (go * A).is_zero()
                    assert (go * BN).is_zero()


def test_terms_of_bB_strictly_increase(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        order = weak_preorder(m)
        lat = build_semilattice(m, order)
        for nd in lat.nodes:
            J = nd.node_id
            B = node_data(lat, J).B
            outside = [m.idempotent_power(g) for g in m.generators
                       if not lat.preceq(lat.content(g), J)]
            for b in range(m.size):
                if not any(m.mult(b, go) == b for go in outside):
                    continue
                for c in (basis(m, b) * B).coeffs:
                    assert c != b and order.leq(b, c)


def test_jtrivial_and_general_agree(hecke3, hecke4, matrix_monoid):
    for m in (hecke3, hecke4, matrix_monoid):
        lat = build_semilattice(m)
        gen = e_system(lat, mode="general")
        jtr = e_system(lat, mode="jtrivial")
        for J in range(lat.n_nodes):
            assert gen.data[J].e == jtr.data[J].e
            assert gen.data[J].P == jtr.data[J].P


def test_duplicate_generators_full_pipeline():
    # repeated and identity generators stay in the fixed order and only
    # contribute idempotent factors; the system must still verify
    from rmonoid import Transformation, close
    from rmonoid.verify import run_full_suite
    g = Transformation((0, 0, 2))
    h = Transformation((0, 1, 1))
    m = close([Transformation.identity(3), g, g, h], names="e f f2 h".split())
    assert run_full_suite(m).passed


def _corrupt_one_p(monkeypatch, node):
    """Make the suite's e_system return a system whose P at `node` is doubled."""
    from rmonoid import verify

    def corrupted(lat, mode="auto"):
        sys_ = e_system(lat, mode)
        sys_.data[node].P = sys_.data[node].P.scale(2)
        return sys_
    monkeypatch.setattr(verify, "e_system", corrupted)


def test_p_closed_form_check_can_fail(lrb2, monkeypatch):
    from rmonoid.verify import run_full_suite
    lines = run_full_suite(lrb2).lines()
    assert "PASS  p_closed_form_matches_summation" in lines
    _corrupt_one_p(monkeypatch, 1)
    report = run_full_suite(lrb2)
    assert not report.passed
    assert ("FAIL  p_closed_form_matches_summation  (closed form of P at "
            "node 1 disagrees with the truncated summation)") in report.lines()


def test_p_closed_form_failure_makes_verify_exit_1(monkeypatch, capsys):
    from rmonoid.cli import main
    _corrupt_one_p(monkeypatch, 0)
    assert main(["verify", '{"kind":"free_lrb","k":2}']) == 1
    out = capsys.readouterr().out
    assert "FAIL  p_closed_form_matches_summation" in out


def test_deterministic_serialization(matrix_monoid):
    def build_payload():
        from rmonoid import Transformation, close
        m = close([Transformation((0, 2, 2)), Transformation((1, 1, 2))],
                  names=["g1", "g2"])
        lat = build_semilattice(m)
        sys_ = e_system(lat, mode="auto")
        verify_system(lat, sys_)
        return to_json(system_payload(lat, sys_))

    assert build_payload() == build_payload()
