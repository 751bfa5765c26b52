import itertools
import random
from collections import Counter

import pytest

from rmonoid import (Transformation, basis, build_free_lrb, build_hecke_a,
                     build_semilattice, close, e_system, from_coeffs,
                     from_table, is_j_trivial, node_data, one, verify_system,
                     weak_preorder)
from rmonoid import algebra
from rmonoid.output import system_payload, to_json
from rmonoid.verify import _p_closed_form

from conftest import (CORRUPTIONS, corrupted, hecke_elt,
                      random_r_trivial_monoids, random_transformation_monoids,
                      subset_nodes)
from oracle import left_ideal, naive_system, system_check_lines


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
    assert rec.P == _p_closed_form(rec.z, rec.N_z, "general")
    rec = node_data(lat, nodes[()], mode="general")
    assert rec.P == 1 - a - b + a * b
    assert rec.P == _p_closed_form(rec.z, rec.N_z, "general")
    # z idempotent at the top: P = z in both modes
    z_top = basis(m, 3)
    for mode in ("general", "jtrivial"):
        rec = node_data(lat, nodes[(1, 2)], mode=mode)
        assert rec.P == z_top
        assert rec.P == _p_closed_form(rec.z, rec.N_z, mode)


def test_p_idempotent_everywhere(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        lat = build_semilattice(m)
        modes = ("general", "jtrivial") if is_j_trivial(m) else ("general",)
        for mode in modes:
            for nd in lat.nodes:
                rec = node_data(lat, nd.node_id, mode=mode)
                assert rec.P * rec.P == rec.P
                assert rec.P == _p_closed_form(rec.z, rec.N_z, mode)


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
                want = oracle[left_ideal(m.table(), nd.witness)]
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


def _cartan_ranks_and_counts(m):
    """Per (J, K): the mod-p rank of {e_J x e_K : x in M}, and the number of
    x with lfix(x) at node J and rfix(x) at node K, all read off the table."""
    n = m.size
    table = m.table()
    lat = build_semilattice(m)
    es = [rec.e.coeffs for rec in e_system(lat, mode="auto").data]
    node_of = {left_ideal(table, nd.witness): nd.node_id for nd in lat.nodes}
    idem = [f for f in range(n) if table[f][f] == f]
    two_sided = {}
    for f in idem:
        ideal = set()
        for y in {table[a][f] for a in range(n)}:
            ideal.update(table[y])
        two_sided[f] = ideal

    def fix(stabilises):
        # the idempotent with the smallest two-sided ideal, which lies in
        # the ideal of every other candidate
        cands = [f for f in idem if stabilises(f)]
        f = min(cands, key=lambda f: len(two_sided[f]))
        assert all(two_sided[f] <= two_sided[g] for g in cands)
        return node_of[frozenset(a for a in range(n) if table[a][f] == a)]

    counts = Counter(
        (fix(lambda f: table[f][x] == x), fix(lambda f: table[x][f] == x))
        for x in range(n))
    ranks = {}
    for J, eJ in enumerate(es):
        left = []
        for x in range(n):
            v = {}
            for a, c in eJ.items():
                ax = table[a][x]
                v[ax] = v.get(ax, 0) + c
            left.append(v)
        for K, eK in enumerate(es):
            vectors = []
            for v in left:
                w = {}
                for y, c in v.items():
                    row = table[y]
                    for b, d in eK.items():
                        w[row[b]] = w.get(row[b], 0) + c * d
                vectors.append(w)
            ranks[J, K] = _rank_mod_p(vectors)
    return ranks, counts


def test_cartan_matrix_j_trivial():
    # Denton-Hivert-Schilling-Thiery (arXiv:1010.3455): for J-trivial M,
    # dim e_J QM e_K counts the x with lfix(x) at J and rfix(x) at K. QM is
    # the direct sum of the e_J QM e_K, so ranks mod p summing to n are
    # exact. 0-Hecke Cartan matrices are symmetric; the random monoids are
    # mostly not, which pins the orientation.
    monoids = [build_hecke_a(3), build_hecke_a(4)] + [
        m for m in random_transformation_monoids(60, 5, True, max_size=60)
        if is_j_trivial(m)]
    assert len(monoids) > 30
    asymmetric = 0
    for m in monoids:
        ranks, counts = _cartan_ranks_and_counts(m)
        assert sum(ranks.values()) == m.size
        assert ranks == {JK: counts[JK] for JK in ranks}
        asymmetric += any(counts[J, K] != counts[K, J] for J, K in ranks)
    assert asymmetric > 20


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


def test_p_closed_form_checked_in_jtrivial_mode(monkeypatch, capsys):
    # hecke_a 3 is J-trivial, so verify builds P by the short formula
    from rmonoid.cli import main
    _corrupt_one_p(monkeypatch, 2)
    assert main(["verify", '{"kind":"hecke_a","n":3}']) == 1
    out = capsys.readouterr().out
    assert ("FAIL  p_closed_form_matches_summation  (closed form of P at "
            "node 2 disagrees with the truncated summation)") in out


@pytest.mark.parametrize("what, node, idempotent_line", [
    ("P", 1, "FAIL  idempotent  (P at node 1)"),
    ("z", 2, "PASS  idempotent"),
])
def test_idempotents_checks_p_and_z_after_construction(
        monkeypatch, capsys, what, node, idempotent_line):
    from rmonoid import cli

    def corrupted(lat, mode="auto"):
        sys_ = e_system(lat, mode)
        rec = sys_.data[node]
        setattr(rec, what, getattr(rec, what).scale(2))
        return sys_
    monkeypatch.setattr(cli, "e_system", corrupted)
    assert cli.main(["idempotents", '{"kind":"free_lrb","k":2}',
                     "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert idempotent_line in lines
    assert (f"FAIL  nonzero_with_unit_leading_term  (coefficient of T in "
            f"{what} at node {node} is 2)") in lines


def test_leading_term_check_names_lowest_bad_term():
    m = build_hecke_a(3)
    lat = build_semilattice(m)
    sys_ = e_system(lat, "general")
    # nothing is strictly above a maximal node, so every term but T is bad
    J = next(K for K in range(lat.n_nodes) if not lat.strictly_above(K))
    T = sys_.data[J].T
    a, b = sorted(x for x in range(m.size) if x != T)[:2]
    sys_.data[J].z = from_coeffs(m, {T: 1, b: 1, a: 1})
    detail = {c.name: c.detail for c in verify_system(lat, sys_).checks}
    assert detail["nonzero_with_unit_leading_term"] == (
        f"term {a} of z at node {J} has content {lat.content(a)}, "
        f"not strictly above {J}")


def test_count_equals_lattice_checks_records(lrb2):
    lat = build_semilattice(lrb2)
    k = lat.n_nodes
    for edit, detail in (
            (lambda d: d.pop(), f"{k - 1} idempotents for {k} nodes"),
            (lambda d: d.append(d[0]), f"{k + 1} idempotents for {k} nodes"),
            (lambda d: d.reverse(), f"record 0 has node_id {k - 1}"),
            (lambda d: d.clear(), f"0 idempotents for {k} nodes")):
        sys_ = e_system(lat, mode="general")
        edit(sys_.data)
        lines = verify_system(lat, sys_).lines()
        assert f"FAIL  count_equals_lattice  ({detail})" in lines
    # no records at all: nothing to multiply, and no e_J to sum to 1
    assert "FAIL  sum_to_one  (sum of all e_J is not 1)" in lines


@pytest.mark.parametrize("corrupt, detail", [
    ((("P", 2), ("e", 3)), "P at node 2"),
    ((("P", 1), ("e", 1)), "e at node 1"),
])
def test_idempotent_check_names_lowest_node_e_before_p(corrupt, detail):
    # a fresh monoid, so e_J and P_J come from two separate sweeps
    lat = build_semilattice(build_hecke_a(3))
    sys_ = e_system(lat, "general")
    for what, J in corrupt:
        rec = sys_.data[J]
        setattr(rec, what, getattr(rec, what).scale(2))
    checks = {c.name: c.detail for c in verify_system(lat, sys_).checks}
    assert checks["idempotent"] == detail


def _record_products(monkeypatch, m):
    """Log (left operand, right factor) of every `RightFactor` product,
    and keep every `RightFactor`, so a test can read how many translates
    each one built."""
    products, factors = [], []
    init, left_mul = algebra.RightFactor.__init__, algebra.RightFactor.left_mul

    def recording_init(self, b):
        factors.append(self)
        init(self, b)

    def recording_left_mul(self, a):
        products.append((a.coeffs, self.translate(m.identity)))
        return left_mul(self, a)
    monkeypatch.setattr(algebra.RightFactor, "__init__", recording_init)
    monkeypatch.setattr(algebra.RightFactor, "left_mul", recording_left_mul)
    return products, factors


def test_passing_system_needs_no_pair_product(monkeypatch):
    # the zero certificate settles every pair of the z, P and e*P scans
    # and the idempotent-sum lemma settles `orthogonal`, so the only
    # products are e_K * e_K and P_K * P_K, over the terms the certificate
    # leaves; and no right factor sweeps its translates, which would
    # build one per element
    m = build_hecke_a(4)
    lat = build_semilattice(m)
    sys_ = e_system(lat, "general")
    products, factors = _record_products(monkeypatch, m)
    assert verify_system(lat, sys_).passed
    want = [getattr(nd, what).coeffs for nd in sys_.data for what in "eP"]
    assert [b for _, b in products] == want
    assert all(a.items() <= b.items() for a, b in products)
    assert factors and all(len(f._memo) < m.size / 2 for f in factors)


def _oracle_lines(m, table, sys_):
    return system_check_lines(
        table, m.identity, list(m.generators),
        [(nd.node_id, nd.T, nd.z.coeffs, nd.P.coeffs, nd.e.coeffs)
         for nd in sys_.data])


def test_verify_system_matches_all_pairs_oracle():
    # every report line against the explicit all-pairs scan, on clean
    # systems and on one-record corruptions of each kind
    rng = random.Random(2020)
    monoids = [build_hecke_a(n) for n in range(2, 6)]
    monoids += [build_free_lrb(k) for k in range(1, 5)]
    monoids.append(close([Transformation((0, 2, 2)),
                          Transformation((1, 1, 2))]))
    monoids += random_r_trivial_monoids(count=100, seed=31)
    failed = Counter()
    for i, m in enumerate(monoids):
        lat = build_semilattice(m)
        sys_ = e_system(lat, "auto")
        got = verify_system(lat, sys_).lines()
        table = m.table()       # after the first check, which walks
        assert got == _oracle_lines(m, table, sys_), i
        k = lat.n_nodes
        kinds = CORRUPTIONS if i < 9 else rng.sample(CORRUPTIONS, 2)
        for kind in kinds:
            bad = corrupted(sys_, kind, rng.choice("ePz"), rng.randrange(k),
                            rng.randrange(k), rng.randrange(m.size),
                            rng.choice((-1, 2)))
            got = verify_system(lat, bad).lines()
            assert got == _oracle_lines(m, table, bad), (i, kind)
            failed.update(line.split()[1] for line in got
                          if line.startswith("FAIL"))
    # the corruptions reach every check
    assert len(failed) == 8, failed


def test_uncertified_pair_is_multiplied(monkeypatch):
    # with z_0 = 1, Kill(z_0) is empty, so no certificate settles a pair
    # of column 0; the exact product z_1 * 1 names the pair
    m = build_hecke_a(3)
    lat = build_semilattice(m)
    sys_ = e_system(lat, "general")
    bad = corrupted(sys_, "replace", "z", 0, 0, m.identity, 1)
    products, _ = _record_products(monkeypatch, m)
    lines = verify_system(lat, bad).lines()
    assert lines == _oracle_lines(m, m.table(), bad)
    assert ("FAIL  z_orthogonality  (z_J * z_K != 0 at (1, 0) with J not "
            "preceq K)") in lines
    assert (sys_.data[1].z.coeffs, {m.identity: 1}) in products


def test_orthogonal_scans_when_a_premise_of_the_lemma_fails(monkeypatch):
    # with e_J scaled, `idempotent` fails and `orthogonal` multiplies e
    # pairs; with e_J a copy of e_K, `sum_to_one` fails and it names
    # (J, K); a correct system multiplies no e pair
    m = build_hecke_a(3)
    lat = build_semilattice(m)
    sys_ = e_system(lat, "general")
    products, _ = _record_products(monkeypatch, m)

    def e_pairs(s):
        products.clear()
        lines = verify_system(lat, s).lines()
        es = [nd.e.coeffs for nd in s.data]
        return lines, sum(b in es and a in es and a != b
                          for a, b in products)
    assert e_pairs(sys_) == (verify_system(lat, sys_).lines(), 0)
    lines, n_pairs = e_pairs(corrupted(sys_, "scale", "e", 1, 0, 0))
    assert "FAIL  idempotent  (e at node 1)" in lines
    assert "PASS  orthogonal" in lines and n_pairs > 0
    lines, n_pairs = e_pairs(corrupted(sys_, "copy", "e", 1, 2, 0))
    assert "PASS  idempotent" in lines
    assert "FAIL  orthogonal  (e_J * e_K != 0 at (1, 2))" in lines
    assert n_pairs > 0
    table = m.table()
    for kind in ("scale", "copy"):
        bad = corrupted(sys_, kind, "e", 1, 2, 0)
        assert verify_system(lat, bad).lines() == _oracle_lines(m, table, bad)


def test_hecke6_idempotents_read_only_generator_rows():
    # every product steps along the left Cayley tree, whose edges are the
    # k generator rows
    m = build_hecke_a(6)
    lat = build_semilattice(m)
    sys = e_system(lat, "auto")
    assert verify_system(lat, sys).passed
    forced = [x for x in range(m.size) if m._rows[x] is not None]
    assert forced == sorted(m.generators)


def test_table_idempotents_read_only_generator_rows():
    # a from_table monoid keeps only its generator columns, so it reads
    # rows as a closure-built one does
    h = build_hecke_a(5)
    m = from_table(h.table(), generators=h.generators)
    lat = build_semilattice(m, weak_preorder(m))
    sys = e_system(lat, "auto")
    assert verify_system(lat, sys).passed
    forced = [x for x in range(m.size) if m._cached_row(x) is not None]
    assert forced == sorted(m.generators)


def test_orthogonality_checks_name_first_pair_in_row_major_order():
    # several pairs fail each scan; the scans run column by column but
    # must still name the first failing pair in row-major order
    m = build_hecke_a(3)
    lat = build_semilattice(m)
    sys = e_system(lat, "general")
    for J in (2, 3):
        sys.data[J].e = sys.data[J].z = sys.data[J].P = one(m)
    detail = {c.name: c.detail for c in verify_system(lat, sys).checks}
    es = [nd.e for nd in sys.data]
    zs = [nd.z for nd in sys.data]
    ps = [nd.P for nd in sys.data]
    k = lat.n_nodes
    for name, left, right, skip, text in (
        ("orthogonal", es, es, lambda a, b: a == b,
         "e_J * e_K != 0 at (0, 2)"),
        ("z_orthogonality", zs, zs, lat.preceq,
         "z_J * z_K != 0 at (1, 2) with J not preceq K"),
        ("p_orthogonality", ps, ps, lat.preceq,
         "P_J * P_K != 0 at (1, 2) with J not preceq K"),
        ("e_p_orthogonality", es, ps, lat.preceq,
         "e_K * P_J != 0 at (1, 2) with K not preceq J"),
    ):
        assert detail[name] == text
        failing = [(a, b) for a in range(k) for b in range(k)
                   if not skip(a, b) and not (left[a] * right[b]).is_zero()]
        assert str(failing[0]) in text
        # the column-major first pair differs, so the order is pinned
        assert min(failing, key=lambda p: (p[1], p[0])) != failing[0]


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
