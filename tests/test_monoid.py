import itertools
import random
import re

import pytest

from rmonoid import (CapExceeded, Monoid, SpecError, Transformation,
                     build_free_lrb, build_hecke_a, close, compose,
                     from_table)

from conftest import (hecke_elt, permuted_table, random_r_trivial_monoids,
                      random_transformation_monoids)
from oracle import associativity_failure


def test_compose_examples():
    g1 = Transformation((0, 2, 2))
    g2 = Transformation((1, 1, 2))
    assert compose(g1, g2).images == (1, 2, 2)
    assert compose(g1, g1) == g1          # g1 is idempotent
    ident = Transformation.identity(3)
    assert compose(ident, g2) == g2
    assert compose(g2, ident) == g2


def test_compose_degree_mismatch():
    with pytest.raises(SpecError):
        compose(Transformation((0,)), Transformation((0, 1)))


def test_transformation_validation():
    with pytest.raises(SpecError):
        Transformation((0, 3, 1))


def test_close_matrix_monoid(matrix_monoid):
    m = matrix_monoid
    assert m.size == 5
    assert m.identity == 0
    assert m.generators == [1, 2]
    # image tuples of 1, g1, g2, g1g2, g2g1, composed along each word
    gens = [Transformation((0, 2, 2)), Transformation((1, 1, 2))]
    images = set()
    for x in range(m.size):
        t = Transformation.identity(3)
        for gi in m.word(x):
            t = compose(t, gens[gi])
        images.add(t.images)
    assert images == {
        (0, 1, 2), (0, 2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2)
    }


def test_close_single_identity_generator():
    m = close([Transformation.identity(4)])
    assert m.size == 1
    assert m.generators == [0]


def test_close_hecke3_transformations(hecke3):
    assert hecke3.size == 6
    words = {hecke3.word(x) for x in range(6)}
    assert words == {(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)}


def test_close_cap():
    g1 = Transformation((0, 2, 2))
    g2 = Transformation((1, 1, 2))
    with pytest.raises(CapExceeded) as err:
        close([g1, g2], cap=3)
    assert err.value.cap == 3


def test_close_requires_generators():
    with pytest.raises(SpecError):
        close([])


def test_words_shortlex_and_roundtrip(matrix_monoid, lrb2, hecke4):
    for m in (matrix_monoid, lrb2, hecke4):
        for x in range(m.size):
            w = m.word(x)
            assert m.eval_word(w) == x
        # shortlex: BFS ids sort by (length, word) for closure-built monoids
        keys = [(len(m.word(x)), m.word(x)) for x in range(m.size)]
        assert keys == sorted(keys)


def test_mult_table_consistency(matrix_monoid, lrb2, hecke4, group2,
                                trivial):
    # mult walks words, row fills in BFS order: two routes to one product
    for m in (matrix_monoid, lrb2, hecke4, group2, trivial):
        t = m.table()
        for x in range(m.size):
            for y in range(m.size):
                assert t[x][y] == m.mult(x, y)
    # identity row and column
    t = matrix_monoid.table()
    assert t[0] == list(range(5))
    assert [t[x][0] for x in range(5)] == list(range(5))


def test_mult_matches_input_table():
    # the full transformation monoid on 3 points, tabled by composing
    # images, with the identity at row 5; generated by every non-identity
    # element, then by a transposition, a 3-cycle and a rank-2 map
    maps = list(itertools.product(range(3), repeat=3))
    index = {f: i for i, f in enumerate(maps)}
    table = [[index[compose(Transformation(f), Transformation(g)).images]
              for g in maps] for f in maps]
    ident = index[(0, 1, 2)]
    for gens in (None, [index[(1, 0, 2)], index[(1, 2, 0)], index[(0, 0, 2)]]):
        m = from_table(table, identity=ident, generators=gens)
        for x in range(27):
            for y in range(27):
                assert m.mult(x, y) == table[x][y]


def test_associativity_spot_check(matrix_monoid):
    m = matrix_monoid
    for x in range(5):
        for y in range(5):
            for z in range(5):
                assert m.mult(m.mult(x, y), z) == m.mult(x, m.mult(y, z))


def test_from_table_trivial(trivial):
    assert trivial.size == 1
    assert trivial.mult(0, 0) == 0
    assert trivial.word(0) == ()


def test_from_table_identity_violation():
    with pytest.raises(SpecError) as err:
        from_table([[0, 1], [1, 1]], identity=1)
    assert "identity" in str(err.value)


def test_from_table_associativity_violation():
    table = [[0, 1, 2], [1, 2, 2], [2, 1, 2]]
    with pytest.raises(SpecError) as err:
        from_table(table)
    assert "associativity" in str(err.value)


def test_from_table_bad_entries():
    with pytest.raises(SpecError):
        from_table([[0, 5], [1, 0]])


@pytest.mark.parametrize("table, kwargs, message", [
    ([], {}, "table: empty table"),
    ([[0, 1], [1]], {}, "table: row 1 has length 1, expected 2"),
    ([[0, 1], [1, 2]], {}, "table: entry [1][1] = 2 outside [0, 2)"),
    ([[0, 1], [1, -1]], {}, "table: entry [1][1] = -1 outside [0, 2)"),
    ([[0, 1.0], [1, 0]], {}, "table: entry [0][1] = 1.0 outside [0, 2)"),
    ([[0, "1"], [1, 0]], {}, "table: entry [0][1] = '1' outside [0, 2)"),
    ([[0, 1], [1, 0]], {"identity": 2}, "identity: 2 outside [0, 2)"),
    ([[0, 1], [1, 0]], {"generators": [2]},
     "generators: generator id 2 outside [0, 2)"),
])
def test_from_table_checks_entries_when_called_directly(table, kwargs,
                                                         message):
    # each message from_table's own checks give, before any table is built
    with pytest.raises(SpecError) as err:
        from_table(table, **kwargs)
    assert str(err.value) == message


def test_from_table_generators_must_generate(lrb2):
    table = lrb2.table()
    with pytest.raises(SpecError) as err:
        from_table(table, generators=[3])
    assert "reach" in str(err.value)


def test_from_table_accepts_group(group2):
    # a group is a fine monoid; R-triviality is a separate verdict
    assert group2.size == 2
    assert group2.mult(1, 1) == 0


def test_from_table_identity_not_at_zero():
    # two-element semilattice written with the identity in row 1
    m = from_table([[0, 0], [0, 1]], identity=1, generators=[0])
    assert m.identity == 1
    assert m.word(1) == ()
    assert m.word(0) == (0,)
    assert m.mult(0, 0) == 0
    ok = all(m.mult(m.mult(x, y), z) == m.mult(x, m.mult(y, z))
             for x in range(2) for y in range(2) for z in range(2))
    assert ok


def test_close_with_duplicate_and_identity_generators():
    g = Transformation((0, 0, 2))
    m = close([Transformation.identity(3), g, g], names=["e", "f", "f2"])
    assert m.size == 2
    assert m.generators == [0, 1, 1]
    assert m.word(1) == (1,)       # first non-identity generator position


def test_monoid_is_its_generator_steps():
    # size and words come from the BFS tree of the generator steps
    m = Monoid(identity=2, generators=[0, 1], gen_names=["a", "b"],
               gen_step=[[0, 0], [0, 1], [0, 1]])
    assert m.size == 3
    assert [m.word(x) for x in range(3)] == [(0,), (1,), ()]
    assert m.table() == [[0, 0, 0], [0, 1, 1], [0, 1, 2]]


def test_from_table_rows_follow_bfs_order():
    # from_table keeps no row; each is rebuilt along the BFS tree, whose
    # order is not the id order once ids are permuted
    m = close([Transformation((0, 0, 2, 1)), Transformation((1, 1, 1, 3))])
    table, identity, gens = permuted_table(m, 7)
    tm = from_table(table, identity=identity, generators=gens)
    assert all(tm._cached_row(x) is None for x in range(tm.size))
    assert [tm.row(x) for x in range(tm.size)] == table


TRIPLE = re.compile(r"associativity fails at triple \((\d+), (\d+), (\d+)\)")


def _light_verdict(table, identity, generators):
    """Whether from_table accepts the table, or None when the generators
    do not reach every element. A rejection must name a triple that
    really fails."""
    try:
        from_table(table, identity=identity, generators=generators)
    except SpecError as err:
        if err.field == "generators":
            return None
        assert err.field == "table", err
        x, y, z = map(int, TRIPLE.fullmatch(err.reason).groups())
        assert table[table[x][y]][z] != table[x][table[y][z]]
        return False
    return True


def _monoid_tables():
    """(table, identity, generators) for the monoid tables the tests
    build, all of at most 256 elements."""
    monoids = [close([Transformation((0, 2, 2)), Transformation((1, 1, 2))]),
               close([Transformation((0, 0, 2, 1)),
                      Transformation((1, 1, 1, 3))])]
    monoids += [build_hecke_a(n) for n in range(2, 6)]
    monoids += [build_free_lrb(k) for k in range(1, 5)]
    monoids += random_r_trivial_monoids(6, 3)
    for decreasing in (True, False):
        monoids += random_transformation_monoids(6, 4, decreasing)
    for m in monoids:
        yield m.table(), m.identity, list(m.generators)
    yield permuted_table(monoids[1], 7)
    maps = list(itertools.product(range(3), repeat=3))
    index = {f: i for i, f in enumerate(maps)}
    yield ([[index[compose(Transformation(f), Transformation(g)).images]
             for g in maps] for f in maps], index[(0, 1, 2)], None)
    yield [[0, 1], [1, 0]], 0, [1]
    yield [[0, 0], [0, 1]], 1, [0]
    yield [[0]], 0, []


def test_light_test_agrees_with_cubic_check():
    # Light's test over the generators against all n^3 triples: on the
    # test monoids, on each with entries corrupted, and on random tables
    # with an identity, with the default and with the given generators
    rng = random.Random(2010)
    cases = []
    for table, identity, gens in _monoid_tables():
        cases.append((table, identity, gens))
        n = len(table)
        others = [x for x in range(n) if x != identity]
        for _ in range(4 if others else 0):
            bad = [list(r) for r in table]
            for _ in range(rng.randint(1, 2)):
                x, y = rng.choice(others), rng.choice(others)
                bad[x][y] = rng.randrange(n)
            cases.append((bad, identity, gens))
    for _ in range(1500):
        n = rng.randint(2, 6)
        table = [[y if x == 0 else x if y == 0 else rng.randrange(n)
                  for y in range(n)] for x in range(n)]
        gens = rng.sample(range(1, n), rng.randint(1, n - 1))
        cases.append((table, 0, gens))
    tally = {True: 0, False: 0}
    for table, identity, gens in cases:
        want = associativity_failure(table) is None
        tally[want] += 1
        assert _light_verdict(table, identity, None) == want, table
        assert _light_verdict(table, identity, gens) in (want, None), table
    # both verdicts occur often enough for the agreement to mean something
    assert min(tally.values()) >= 100, tally


def test_light_test_rejects_generators_that_skip_a_needed_one():
    # 1 reaches 2, so Light's test uses 1 alone; 1 reaches only {0, 1, 2},
    # and the test must still fail, since 3 = 1*2 is reached through 2
    table = [[0, 1, 2, 3], [1, 2, 3, 3], [2, 2, 3, 3], [3, 3, 3, 3]]
    assert associativity_failure(table) is not None
    assert _light_verdict(table, 0, [1, 2]) is False


def test_rebuild_from_own_table_is_isomorphic(matrix_monoid, lrb2, hecke3):
    for m in (matrix_monoid, lrb2, hecke3):
        m2 = from_table(m.table(), identity=m.identity,
                        generators=list(m.generators))
        assert m2.size == m.size
        # bijection induced by words is the identity map here
        for x in range(m.size):
            assert m2.eval_word(m.word(x)) == x
        for x in range(m.size):
            for y in range(m.size):
                assert m2.mult(x, y) == m.mult(x, y)


def test_idempotent_power_basics(matrix_monoid, group2):
    m = matrix_monoid
    for e in (0, 1, 2, 4):
        assert m.idempotent_power(e) == e       # already idempotent
    assert m.idempotent_power(3) == 4           # (g1g2)^2 = g2g1 idempotent
    assert group2.idempotent_power(1) == 0      # x^2 = 1


def test_idempotent_power_squares(matrix_monoid, lrb2, hecke4, group2):
    for m in (matrix_monoid, lrb2, hecke4, group2):
        for x in range(m.size):
            p = m.idempotent_power(x)
            assert m.mult(p, p) == p


def test_idempotent_power_absorbs_in_r_trivial(matrix_monoid, lrb2, hecke4):
    # x^omega * x = x^omega holds in R-trivial monoids
    for m in (matrix_monoid, lrb2, hecke4):
        for x in range(m.size):
            p = m.idempotent_power(x)
            assert m.mult(p, x) == p


def test_idempotent_power_hecke5_staircase(hecke5):
    m = hecke5
    x = hecke_elt(m, "1234")
    assert m.idempotent_power(x) == hecke_elt(m, "1234123121")
