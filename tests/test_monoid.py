import pytest

from rmonoid import (CapExceeded, SpecError, Transformation, close, compose,
                     from_table)

from conftest import hecke_elt


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


def test_mult_table_consistency(matrix_monoid):
    m = matrix_monoid
    t = m.table()
    for x in range(5):
        for y in range(5):
            assert t[x][y] == m.mult(x, y)
    # identity row and column
    assert t[0] == list(range(5))
    assert [t[x][0] for x in range(5)] == list(range(5))


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


def test_from_table_skips_assoc_check_above_bound(lrb2):
    m = from_table(lrb2.table(), generators=list(lrb2.generators),
                   assoc_check_bound=3)
    assert m.associativity_verified is False
    m2 = from_table(lrb2.table(), generators=list(lrb2.generators))
    assert m2.associativity_verified is True


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
