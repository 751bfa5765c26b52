import random

import pytest

import oracle
from conftest import random_transformation_monoids
from rmonoid import (build_free_lrb, build_semilattice, check_left_absorption,
                     is_j_trivial, weak_preorder)
from rmonoid import verify
from rmonoid.order import _reach, _upsets, iter_bits
from rmonoid.verify import check_omega_identities


def upset(order, x):
    return set(iter_bits(order.up[x]))


def test_identity_below_everything(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        order = weak_preorder(m)
        assert upset(order, m.identity) == set(range(m.size))


def test_preorder_reflexive_transitive(matrix_monoid, lrb2, hecke4, group2):
    for m in (matrix_monoid, lrb2, hecke4, group2):
        order = weak_preorder(m)
        for x in range(m.size):
            assert order.leq(x, x)
            for y in iter_bits(order.up[x]):
                assert order.up[x] | order.up[y] == order.up[x]


def test_lrb_reachability(lrb2):
    # ids: 0=1, 1=a, 2=b, 3=ab, 4=ba; from a only a and ab are reachable
    order = weak_preorder(lrb2)
    assert upset(order, 1) == {1, 3}
    assert not order.leq(1, 4)


def test_group2_preorder_not_antisymmetric(group2):
    order = weak_preorder(group2)
    assert order.leq(0, 1) and order.leq(1, 0)
    assert not order.is_partial_order
    assert order.chain_length is None


def test_is_r_trivial_verdicts(matrix_monoid, lrb2, group2, trivial):
    for m in (matrix_monoid, lrb2, trivial):
        order = weak_preorder(m)
        assert order.is_partial_order and order.witness is None
    order = weak_preorder(group2)
    assert not order.is_partial_order
    assert order.witness == (0, 1)


def test_r_trivial_matches_right_ideal_brute_force(matrix_monoid, lrb2,
                                                   hecke4, group2, trivial):
    for m in (matrix_monoid, lrb2, hecke4, group2, trivial):
        distinct = len({frozenset(m.row(x)) for x in range(m.size)}) == m.size
        assert weak_preorder(m).is_partial_order == distinct


def test_chain_lengths(matrix_monoid, lrb2, trivial, hecke3):
    assert weak_preorder(trivial).chain_length == 1
    # 1 < g1 < g1g2 < g2g1 is longest in the matrix monoid
    assert weak_preorder(matrix_monoid).chain_length == 4
    # 1 < a < ab
    assert weak_preorder(lrb2).chain_length == 3
    # weak order chain of S3 has 3 inversions; 4 elements
    assert weak_preorder(hecke3).chain_length == 4


def test_is_j_trivial(matrix_monoid, lrb2, hecke5, trivial, group2):
    assert is_j_trivial(hecke5)
    assert is_j_trivial(trivial)
    assert is_j_trivial(matrix_monoid)
    assert not is_j_trivial(lrb2)
    assert not is_j_trivial(group2)


def assert_structure_matches_oracle(m):
    table = m.table()
    up = oracle.upsets(table)
    order = weak_preorder(m)
    assert [frozenset(iter_bits(mask)) for mask in order.up] == up
    assert order.witness == oracle.preorder_witness(up)
    assert order.is_partial_order == (order.witness is None)
    assert order.chain_length == oracle.longest_chain(up)
    assert is_j_trivial(m) == oracle.is_j_trivial(table)
    if order.is_partial_order:
        lat = build_semilattice(m, order)
        idempotents = [e for e in range(m.size) if table[e][e] == e]
        ideal = [oracle.left_ideal(table, nd.witness) for nd in lat.nodes]
        assert [len(s) for s in ideal] == [nd.ideal_size for nd in lat.nodes]
        for e in idempotents:
            assert ideal[lat.content(e)] == oracle.left_ideal(table, e)
        assert set(ideal) == {
            oracle.left_ideal(table, e) for e in idempotents}


def test_structure_matches_brute_force_on_fixtures(matrix_monoid, lrb2, hecke4,
                                                   group2, trivial):
    # in lrb2, ab and ba generate the same two-sided ideal {ab, ba}
    assert not oracle.is_j_trivial(lrb2.table())
    for m in (matrix_monoid, lrb2, hecke4, group2, trivial,
              build_free_lrb(3)):
        assert_structure_matches_oracle(m)


def test_structure_matches_brute_force_on_random_monoids():
    monoids = (random_transformation_monoids(100, seed=5150, decreasing=True)
               + random_transformation_monoids(100, seed=5151,
                                               decreasing=False))
    for m in monoids:
        assert_structure_matches_oracle(m)
    # both verdicts of both triviality tests must occur
    r_trivial = [weak_preorder(m).is_partial_order for m in monoids]
    j_trivial = [is_j_trivial(m) for m in monoids]
    assert 0 < sum(r_trivial) < len(monoids)
    assert 0 < sum(j_trivial) < sum(r_trivial)


def test_reach_on_long_path_and_cycle():
    n = 20_000
    path = [[x + 1] for x in range(n - 1)] + [[]]
    comp, height = _reach(path)
    assert len(set(comp)) == n
    assert height == [n - x for x in range(n)]
    mask = _upsets(path, comp)
    assert mask[0] == (1 << n) - 1 and mask[n - 1] == 1 << (n - 1)
    cycle = [[(x + 1) % n] for x in range(n)]
    comp, height = _reach(cycle)
    assert len(set(comp)) == 1
    assert height == [1] * n
    assert set(_upsets(cycle, comp)) == {(1 << n) - 1}


def test_j_trivial_implies_r_trivial(matrix_monoid, lrb2, hecke4, group2,
                                     trivial):
    for m in (matrix_monoid, lrb2, hecke4, group2, trivial):
        if is_j_trivial(m):
            assert weak_preorder(m).is_partial_order


def test_left_absorption(matrix_monoid, lrb2, hecke4, trivial):
    for m in (matrix_monoid, lrb2, hecke4, trivial):
        ok, violation = check_left_absorption(m)
        assert ok and violation is None


def test_left_absorption_triples_explicitly(matrix_monoid):
    # independent O(n^3) confirmation on the 125 triples
    m = matrix_monoid
    for x in range(5):
        for y in range(5):
            for z in range(5):
                if m.mult(m.mult(x, y), z) == x:
                    assert m.mult(x, y) == x


def test_left_absorption_fails_for_group(group2):
    # x * x * x = x but x * x = 1: the scan must find it
    ok, violation = check_left_absorption(group2)
    assert not ok
    x, y, z = violation
    m = group2
    assert m.mult(m.mult(x, y), z) == x and m.mult(x, y) != x


def test_omega_identities(matrix_monoid, lrb2, hecke4, trivial):
    for m in (matrix_monoid, lrb2, hecke4, trivial):
        ok, bad = check_omega_identities(m)
        assert ok, bad


def _omega_verdicts_match_pair_scan(monoids, pair_limit):
    """check_omega_identities against the oracle's pair scan; returns how
    many of the monoids fail an identity."""
    failed = 0
    for m in monoids:
        want = oracle.omega_identities_failure(m.table(), pair_limit,
                                               verify.SAMPLE_SEED)
        assert check_omega_identities(m) == (want is None, want)
        failed += want is not None
    return failed


def test_omega_identities_match_pair_scan(matrix_monoid, lrb2, hecke4,
                                          group2, trivial):
    # arbitrary maps give monoids that are not R-trivial, where some
    # identity fails: the first failing pair and identity must agree
    monoids = [matrix_monoid, lrb2, hecke4, group2, trivial,
               build_free_lrb(3)]
    monoids += random_transformation_monoids(200, seed=2323, decreasing=False)
    failed = _omega_verdicts_match_pair_scan(monoids, verify.PAIR_LIMIT)
    assert 0 < failed < len(monoids)


def test_omega_identities_sampled_match_pair_scan(monkeypatch, hecke4,
                                                  group2):
    # past the pair limit the check draws its pairs from the fixed seed
    monkeypatch.setattr(verify, "PAIR_LIMIT", 30)
    monoids = [hecke4, build_free_lrb(3)]
    monoids += random_transformation_monoids(40, seed=2324, decreasing=False)
    monoids = [m for m in monoids if m.size ** 2 > 30]
    failed = _omega_verdicts_match_pair_scan(monoids, 30)
    assert 0 < failed < len(monoids)


class _TableMonoid:
    """What check_omega_identities reads of a monoid (size, rows and
    idempotent powers), from a table and a list of powers that need not
    belong to a monoid."""

    def __init__(self, table, idem):
        self.size = len(table)
        self.row = table.__getitem__
        self.idempotent_power = idem.__getitem__


@pytest.mark.parametrize("pair_limit", [verify.PAIR_LIMIT, 30])
def test_omega_identities_match_pair_scan_on_corrupted_tables(
        monkeypatch, hecke4, pair_limit):
    # in a monoid identity 1 or 2 fails first almost always, and the rest
    # are largely implied by them. One corrupted entry of an R-trivial
    # monoid's list of powers or of its table, at random or the entry one
    # identity reads at one pair, lets each of them fail first, and alone.
    monkeypatch.setattr(verify, "PAIR_LIMIT", pair_limit)
    rng = random.Random(2325)
    bases = [build_free_lrb(3), hecke4]
    bases += random_transformation_monoids(8, seed=2326, decreasing=True)
    seen = set()
    for _ in range(600):
        m = rng.choice(bases)
        n = m.size
        table = m.table()
        idem = [m.idempotent_power(x) for x in range(n)]
        x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0:
            idem[x] = v
        elif kind == 1:
            table[x][y] = v
        else:
            xy, xo, yo = table[x][y], idem[x], idem[y]
            w, u = idem[xy], idem[table[xo][yo]]
            row, col = rng.choice([(w, x), (w, y), (w, xo), (w, yo),
                                   (u, xo), (u, xy), (u, w)])
            table[row][col] = (table[row][col] + 1 + v % (n - 1)) % n
        want = oracle.omega_identities_failure(table, pair_limit,
                                               verify.SAMPLE_SEED, idem)
        got = check_omega_identities(_TableMonoid(table, idem))
        assert got == (want is None, want)
        seen.add(want and want[2])
    assert seen >= {None, 1, 2, 3, 4, 5, 6}


def test_sampled_omega_identities_build_only_rows_read(monkeypatch):
    # each drawn pair reads the rows of x, x^omega, w and u
    monkeypatch.setattr(verify, "PAIR_LIMIT", 3)
    m = build_free_lrb(4)
    assert check_omega_identities(m) == (True, None)
    assert 0 < sum(m._cached_row(x) is not None for x in range(m.size)) <= 12
