"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
comparison is exact (integer coefficients, element identity); the only
tolerances are the stated wall-clock budgets, measured per criterion.
"""

import time

import pytest

from rmonoid import (StabilizationError, basis, build_free_lrb, build_hecke_a,
                     build_semilattice, e_system, from_coeffs, from_table,
                     node_data, one, power_until_stable, verify_system,
                     weak_preorder)
from rmonoid.cli import main as cli_main
from rmonoid.verify import run_full_suite

from hecke_reference_data import EXPECTED
from conftest import hecke_elt, random_r_trivial_monoids, subset_nodes
from oracle import left_ideal, naive_system


class Criterion:
    """Context manager printing one PASS/FAIL line with elapsed time."""

    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.name}): {status} "
              f"[{elapsed:.2f}s / budget {self.budget:.0f}s]")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )
        return False


def test_criterion_1_free_lrb_system():
    with Criterion(1, "free left regular band on two generators", 1.0):
        m = build_free_lrb(2, names=["a", "b"])
        lat = build_semilattice(m)
        nodes = subset_nodes(lat)
        sys_ = e_system(lat, mode="auto")
        # ids: 0=1, 1=a, 2=b, 3=ab, 4=ba
        expected_e = {
            (): {0: 1, 1: -1, 2: -1, 4: 1},
            (1,): {1: 1, 3: -1},
            (2,): {2: 1, 4: -1},
            (1, 2): {3: 1},
        }
        expected_p = {
            (): {0: 1, 1: -1, 2: -1, 3: 1},
            (1,): {1: 1, 3: -1},
            (2,): {2: 1, 4: -1},
            (1, 2): {3: 1},
        }
        for subset, coeffs in expected_e.items():
            assert sys_.data[nodes[subset]].e == from_coeffs(m, coeffs)
        for subset, coeffs in expected_p.items():
            assert sys_.data[nodes[subset]].P == from_coeffs(m, coeffs)


_HECKE5_CACHE = []


def hecke5_system():
    """Built once, inside the first criterion that needs it."""
    if not _HECKE5_CACHE:
        m = build_hecke_a(5)
        lat = build_semilattice(m)
        sys_ = e_system(lat, mode="auto")
        _HECKE5_CACHE.append((m, lat, sys_))
    return _HECKE5_CACHE[0]


def test_criterion_2_hecke5_idempotents_bit_exact():
    with Criterion(2, "rank-4 0-Hecke monoid: all 16 idempotents", 60.0):
        m, lat, sys_ = hecke5_system()
        nodes = subset_nodes(lat)
        assert len(nodes) == 16
        for subset, terms in EXPECTED.items():
            coeffs = {}
            for sign, word in terms:
                x = hecke_elt(m, word)
                coeffs[x] = coeffs.get(x, 0) + sign
            assert sys_.data[nodes[subset]].e == from_coeffs(m, coeffs), subset
        # empty subset: signed sum of all 120 elements by word length
        signed_sum = from_coeffs(
            m, {x: (-1) ** len(m.word(x)) for x in range(m.size)}
        )
        assert sys_.data[nodes[()]].e == signed_sum


def test_criterion_3_hecke5_verification():
    with Criterion(3, "rank-4 0-Hecke monoid: system verification", 60.0):
        m, lat, sys_ = hecke5_system()
        assert lat.n_nodes == 16
        report = verify_system(lat, sys_)
        assert report.passed, report.lines()
        # the orthogonality check covers all 240 ordered pairs
        es = [nd.e for nd in sys_.data]
        pairs = [(j, k) for j in range(16) for k in range(16) if j != k]
        assert len(pairs) == 240
        for j, k in pairs:
            assert (es[j] * es[k]).is_zero()
        total = from_coeffs(m, {})
        for e in es:
            total = total + e
        assert total == one(m)
        for e in es:
            assert e * e == e


def test_criterion_4_hecke6_norton_element():
    with Criterion(4, "rank-5 0-Hecke monoid: non-idempotent Norton element",
                   120.0):
        m = build_hecke_a(6)
        assert m.size == 720
        order = weak_preorder(m)
        lat = build_semilattice(m, order)
        nodes = subset_nodes(lat)
        J = nodes[(1, 4, 5)]
        rec = node_data(lat, J, mode="general")
        assert rec.T == hecke_elt(m, "1454")   # T1 T4 T5 T4
        A = rec.A
        t2, t3 = basis(m, m.generators[1]), basis(m, m.generators[2])
        assert A == (1 - t2) * (1 - t3) * (1 - t2)
        z = rec.z
        assert z == A * basis(m, hecke_elt(m, "1454"))
        zk = z
        for k in range(1, 21):
            assert zk * zk != zk, f"z^{k} is idempotent"
            zk = zk * z
        n_z = rec.N_z
        w = one(m) - z
        acc = z * z
        for _ in range(n_z):
            acc = w * acc
        assert acc.is_zero()
        assert n_z <= order.chain_length + 1


def test_criterion_5_order2_group_non_stabilization(capsys):
    with Criterion(5, "order-2 group: no stabilization, CLI exit 2", 1.0):
        m = from_table([[0, 1], [1, 0]], identity=0, generators=[1])
        a = one(m) - basis(m, 1)
        with pytest.raises(StabilizationError):
            power_until_stable(a, 64)
        p = a
        for k in range(2, 30):
            p = p * a
            assert p == from_coeffs(m, {0: 2 ** (k - 1), 1: -(2 ** (k - 1))})
        spec = '{"kind":"table","table":[[0,1],[1,0]],"identity":0,"generators":[1]}'
        assert cli_main(["idempotents", spec]) == 2
        captured = capsys.readouterr()
        assert "not R-trivial" in captured.err


def test_criterion_6_matrix_monoid_against_oracle():
    with Criterion(6, "3x3 matrix monoid: lattice, maps, oracle match", 1.0):
        from rmonoid import Transformation, close
        m = close([Transformation((0, 2, 2)), Transformation((1, 1, 2))],
                  names=["g1", "g2"])
        lat = build_semilattice(m)
        assert lat.n_nodes == 4
        nodes = subset_nodes(lat)
        # content/descent table of the worked example, ids 0..4 =
        # 1, g1, g2, g1g2, g2g1
        assert [lat.content(x) for x in range(5)] == [
            nodes[()], nodes[(1,)], nodes[(2,)], nodes[(1, 2)], nodes[(1, 2)]
        ]
        assert [lat.descent(x) for x in range(5)] == [
            nodes[()], nodes[(1,)], nodes[(2,)], nodes[(2,)], nodes[(1, 2)]
        ]
        sys_ = e_system(lat, mode="auto")
        assert verify_system(lat, sys_).passed
        oracle = naive_system(m.table(), m.identity, list(m.generators))
        for nd in lat.nodes:
            ideal = left_ideal(m.table(), nd.witness)
            assert len(ideal) == nd.ideal_size
            want = from_coeffs(m, dict(enumerate(oracle[ideal])))
            assert sys_.data[nd.node_id].e == want


def test_criterion_7_random_r_trivial_property_suite():
    with Criterion(7, "100 random order-decreasing monoids: full suite",
                   120.0):
        monoids = random_r_trivial_monoids(count=100, seed=20260809)
        assert len(monoids) == 100
        assert all(m.size <= 50 for m in monoids)
        for i, m in enumerate(monoids):
            report = run_full_suite(m)
            assert report.passed, (i, m.size, report.lines())


def test_criterion_8_jtrivial_shortcut_equivalence():
    with Criterion(8, "0-Hecke ranks 2-4: jtrivial mode equals general",
                   90.0):
        for n in (3, 4, 5):
            m = build_hecke_a(n)
            lat = build_semilattice(m)
            gen = e_system(lat, mode="general")
            jtr = e_system(lat, mode="jtrivial")
            for J in range(lat.n_nodes):
                assert gen.data[J].e == jtr.data[J].e
